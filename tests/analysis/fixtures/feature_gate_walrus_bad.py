"""Bad: a walrus guard proves only its own target, not sibling slots."""


class WalrusGuards:
    __slots__ = ("tracer", "synopsis")

    def __init__(self, tracer=None, synopsis=None):
        self.tracer = tracer
        self.synopsis = synopsis

    def emit(self):
        if (t := self.tracer) is not None:
            # the guard proved self.tracer; self.synopsis is still optional
            self.synopsis.rows()

    def drain(self):
        while (tracer := self.tracer) is not None:
            tracer.cluster_read(1)
            self.tracer = tracer.successor()
        # outside the loop the condition is known false, not non-None
        tracer.cluster_read(1)
