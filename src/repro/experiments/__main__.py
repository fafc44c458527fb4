"""``python -m repro.experiments``: see :mod:`repro.experiments.registry`."""
import sys

from repro.experiments.registry import main

sys.exit(main())
