"""Fixture: optional-subsystem uses with no `is not None` guard."""


class Device:
    def submit(self, page):
        self.tracer.cluster_read(1)

    def prune(self, page):
        return self.faults.service(page)


def poll(wal):
    return wal.append(0)
