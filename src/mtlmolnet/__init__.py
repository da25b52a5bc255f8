"""Multi-task molecular property prediction engine.

Pipeline: SMILES -> directed molecular graph -> message passing encoder ->
fusion with physicochemical / quantum descriptors -> per-task classifier
heads, trained with a sample-scale adaptive task weighting loss.

Importing the package sets the process's C allocator once so that freed
large blocks stay in the heap and are reused (``_retain_freed_memory``).
glibc's defaults hand them back to the kernel: a block of 128 KiB or more
is mmapped until the first such free, and after that the heap top is
trimmed once twice the largest freed block lies free there. An encoder
temporary is one E x H float64 array (6.6 MB for a 50-molecule request at
hidden 300) and a forward pass frees far more than twice that, so each
request and each train step faulted its working set in again as fresh
zeroed pages: about 23,000 minor page faults per 50-molecule ``predict``
request and 12,000-19,000 per warm ``model.predict_rows`` call, a third of
the request's time (2-core x86-64 VM, glibc 2.36, about 3 us per fault).
With the settings below a warm request makes fewer than 100.
"""

import ctypes

__version__ = "0.1.0"

M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4  # mallopt parameters of glibc's malloc.h
# No block is mmapped. Raising M_MMAP_THRESHOLD instead stops at glibc's
# 32 MiB ceiling, below the 39 MiB E x H block of a model.CHUNK pass over
# 200 molecules of 40 atoms, which then still made 6,500 faults per call.
MMAP_MAX = 0
# Free heap top kept before trimming. That 40-atom model.CHUNK pass peaks
# at 280 MB of traced heap; one over 200 molecules of 10-40 atoms at 170 MB.
TRIM_THRESHOLD = 1 << 30


def _retain_freed_memory(libc=None):
    """Sets the mmap limit and trim threshold of ``libc`` (the process's C
    library by default) and returns whether both took. A C library
    without ``mallopt`` (not glibc) is left as it is."""
    try:
        mallopt = (ctypes.CDLL(None) if libc is None else libc).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    took = [mallopt(M_MMAP_MAX, MMAP_MAX), mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)]
    return all(took)


_retain_freed_memory()
