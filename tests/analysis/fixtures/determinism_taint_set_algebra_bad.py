"""Bad: set algebra on a set is still a set, and its order leaks."""


def live_pages(page_nos, skips):
    return set(page_nos) - skips


def touched(before, after):
    return {*before} | after


def shared(left, right):
    return frozenset(left).intersection(right)


def moved(left, right):
    return set(left).symmetric_difference(right).union(right)


def flush(out, page_nos, skips):
    for page in live_pages(page_nos, skips):  # hash order
        out.append(page)


def report(before, after, left, right):
    return [list(touched(before, after)), list(shared(left, right)), list(moved(left, right))]
