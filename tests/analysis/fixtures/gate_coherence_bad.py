"""Bad: possibly-None feature slots passed into helpers that require them."""


class Emitter:
    __slots__ = ("tracer",)

    def __init__(self, tracer=None):
        self.tracer = tracer

    def _emit(self, tracer: Tracer) -> None:  # noqa: F821 - lint fixture
        # locally fine: the parameter is declared non-optional
        tracer.cluster_read(1)

    def run(self):
        # the slot may hold None; the helper dereferences it unguarded
        self._emit(self.tracer)

    def flush(self):
        tracer = self.tracer
        # the taint survives the local rebinding
        self._emit(tracer)
