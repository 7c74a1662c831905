"""Traced ``repro`` CLI: ``python serve_child.py TRACE_DIR ARGS...``.

Installs the layer wrappers (``spans.install``) and then runs the
``repro`` command line with ``ARGS``, so the server process and the
pool lanes it forks record spans into ``TRACE_DIR``.
"""

import sys

import spans

if __name__ == "__main__":
    spans.install(sys.argv[1])
    from repro.cli import main

    sys.exit(main(sys.argv[2:]))
