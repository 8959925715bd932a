"""Atomic replacement of the files the pipeline stages write.

Every output file of ``gen``, ``ingest``, ``build-kb``, ``query``,
``detect`` and ``bench`` goes through :func:`atomic_write`: the text is
written to a partial file beside the target and renamed over it only once
the whole body has run, so a write that fails partway (an unencodable
field, a full disk, an interrupt) leaves the previous file as it was and no
partial file behind.
"""

import os
from contextlib import contextmanager
from typing import Iterator, Optional, TextIO


@contextmanager
def atomic_write(path: str, newline: Optional[str] = None) -> Iterator[TextIO]:
    """A UTF-8 text file to write ``path``'s new contents into.

    On a clean exit the partial file replaces ``path`` with ``os.replace``;
    on any exception it is removed and the exception propagates. A symbolic
    link is followed, so the link stays and its target is replaced. A path
    that exists but is not a regular file (``os.devnull``, a pipe, a
    directory) cannot be replaced by a rename: it is opened as it is.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        return
    target = os.path.realpath(path)
    partial = "%s.%d.tmp" % (target, os.getpid())
    try:
        # exclusive: two writes to one path at once (say one file named for
        # both outputs of a stage) fail, rather than mix in one partial file
        with open(partial, "x", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(partial, target)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise
