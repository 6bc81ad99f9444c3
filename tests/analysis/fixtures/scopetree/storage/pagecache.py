"""Scope fixture (storage/): inside determinism-taint's default scope."""


def dirty_pages(cache):
    return {page for page, dirty in cache.items() if dirty}


def flush(cache, out):
    for page in dirty_pages(cache):
        out.append(page)
