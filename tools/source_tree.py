"""Import fastseries from one source tree, or exit with a one-line error.

The tools in this directory measure the tree they are given.  Putting
SRC_DIR first on sys.path is not enough: when SRC_DIR holds no package (say,
a checkout's root instead of its ``src``), Python finds any installed
fastseries, an editable install of another checkout included, and the run
measures that tree instead.  ``import_fastseries`` checks both ends.
"""

import os
import sys


def import_fastseries(src_dir):
    """The fastseries package of src_dir, imported with src_dir first on
    sys.path.  Exits with one line when src_dir holds no package, or when the
    import resolves to one elsewhere (a package imported before this call)."""
    src = os.path.abspath(src_dir)
    if not os.path.isfile(os.path.join(src, "fastseries", "__init__.py")):
        sys.exit(f"error: no fastseries package under {src}")
    sys.path.insert(0, src)
    import fastseries

    if not os.path.abspath(fastseries.__file__).startswith(src + os.sep):
        sys.exit(f"error: fastseries imported from {fastseries.__file__}, not {src}")
    return fastseries
