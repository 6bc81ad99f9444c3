"""Bad: a walrus guard proves only its own target, not sibling slots."""


class WalrusGuards:
    __slots__ = ("tracer", "faults")

    def __init__(self, tracer=None, faults=None):
        self.tracer = tracer
        self.faults = faults

    def emit(self):
        if (t := self.tracer) is not None:
            # the guard proved self.tracer; self.faults is still optional
            self.faults.rows()

    def drain(self):
        while (tracer := self.tracer) is not None:
            tracer.cluster_read(1)
            self.tracer = tracer.successor()
        # outside the loop the condition is known false, not non-None
        tracer.cluster_read(1)
