import sys
from pathlib import Path

# The benchmark's modules import each other as top-level modules, the
# way run.py (a script) sees them.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
