"""Paths shared by the benchmark's modules.

Importing this module puts the checkout's ``src/`` first on ``sys.path``,
so the benchmark always measures the source tree next to it and never an
installed copy.  Without that tree it exits with an error.
"""
from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

if not os.path.isfile(os.path.join(SRC, "lkholonomy", "__init__.py")):
    sys.stderr.write(f"error: no lkholonomy source tree under {SRC}\n")
    raise SystemExit(1)
if sys.path[:1] != [SRC]:
    sys.path.insert(0, SRC)
