"""Fixture: data validation by typed raises."""


def read_record(records, slot):
    record = records[slot]
    if record is None:
        raise ValueError(f"tombstone at slot {slot}")
    return record
