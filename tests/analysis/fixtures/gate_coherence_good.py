"""Good: guarded call sites, or helpers that accept the None themselves."""


class Emitter:
    __slots__ = ("tracer",)

    def __init__(self, tracer=None):
        self.tracer = tracer

    def _emit(self, tracer: Tracer) -> None:  # noqa: F821 - lint fixture
        tracer.cluster_read(1)

    def _emit_optional(self, tracer: Tracer | None) -> None:  # noqa: F821
        if tracer is not None:
            tracer.cluster_read(1)

    def run(self):
        # the call sits inside the guard, so the requirement is met
        if self.tracer is not None:
            self._emit(self.tracer)

    def flush(self):
        # the helper declares the parameter optional and guards inside
        self._emit_optional(self.tracer)

    def drain(self):
        tracer = self.tracer
        if tracer is not None:
            self._emit(tracer)
