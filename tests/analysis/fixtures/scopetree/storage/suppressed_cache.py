"""Scope fixture: the same bug, silenced by a line suppression."""


def dirty_pages(cache):
    return {page for page, dirty in cache.items() if dirty}


def flush(cache, out):
    for page in dirty_pages(cache):  # replint: disable=determinism-taint
        out.append(page)
