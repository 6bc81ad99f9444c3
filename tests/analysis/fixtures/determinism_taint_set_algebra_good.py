"""Good: set algebra sorted before its order can matter; arithmetic on
numbers is not a set."""


def live_pages(page_nos, skips):
    return set(page_nos) - skips


def remaining(total, used):
    return total - used


def flush(out, page_nos, skips):
    for page in sorted(live_pages(page_nos, skips)):
        out.append(page)


def budget(out, total, used):
    for unit in range(remaining(total, used)):
        out.append(unit)
