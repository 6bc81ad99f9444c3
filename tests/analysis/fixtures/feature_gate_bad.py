"""Fixture: optional-subsystem uses with no `is not None` guard."""


class Device:
    def submit(self, page):
        self.tracer.cluster_read(1)

    def prune(self, page):
        return self.synopsis.can_skip(page)


def poll(faults):
    return faults.service(0)
