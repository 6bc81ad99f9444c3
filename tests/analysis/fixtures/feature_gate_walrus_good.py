"""Good: walrus and while-condition guards prove their targets non-None."""


class WalrusGuards:
    __slots__ = ("tracer", "synopsis")

    def __init__(self, tracer=None, synopsis=None):
        self.tracer = tracer
        self.synopsis = synopsis

    def emit(self):
        # the walrus proves both the bound local and the source slot
        if (tracer := self.tracer) is not None:
            tracer.cluster_read(1)
            self.tracer.cluster_read(1)

    def emit_truthy(self):
        # truthiness of the walrus implies non-None just the same
        if (tracer := self.tracer):
            tracer.cluster_read(1)

    def drain(self):
        # the while condition guards the loop body on every iteration
        while (tracer := self.tracer) is not None:
            tracer.cluster_read(1)
            self.tracer = tracer.successor()
