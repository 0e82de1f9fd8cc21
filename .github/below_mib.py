"""Run a command under a peak-memory bound.

    python .github/below_mib.py N command...

Runs the command with this process's stdin, stdout and stderr, then prints
the command and its peak RSS to stderr. Exits with the command's exit code,
or 1 once its peak RSS reaches N MiB (ru_maxrss is in KiB on Linux).
"""

import resource
import subprocess
import sys

code = subprocess.run(sys.argv[2:]).returncode
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(" ".join(sys.argv[2:]), "peak RSS (KiB):", peak, file=sys.stderr)
sys.exit(code or peak >= int(sys.argv[1]) * 1024)
