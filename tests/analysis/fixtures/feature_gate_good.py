"""Fixture: every blessed guard shape, plus a provably non-optional local."""


def build_synopsis():
    return object()


class Device:
    def submit(self, page):
        if self.tracer is not None:
            self.tracer.cluster_read(1)

    def prune(self, page):
        # and-chain: left operand proves the right one safe
        return self.synopsis is not None and self.synopsis.can_skip(page)

    def verdict(self, page):
        faults = self.faults
        if faults is None:
            return None
        # early bail above guards the remainder of the block
        return faults.service(page)

    def maybe(self, tracer=None):
        return tracer.enabled if tracer is not None else False


def rebuild(store):
    # bound from a constructor: provably non-optional, no guard needed
    synopsis = build_synopsis()
    return synopsis.__class__
