"""Print the peak resident memory, in KiB, of one process per command.

    python perfbench/rss_probe.py '[["python3", "-m", "spinr.cli", "table1"], ...]'

prints a JSON list with one figure per command, in order.  Linux counts
the memory of the process that starts a child in the child's peak, so
this script stays a small interpreter: it imports only `json`, `os` and
`sys`, and starts each command with `posix_spawn`, its output discarded.
"""

import json
import os
import sys


def main():
    peaks = []
    devnull = os.open(os.devnull, os.O_WRONLY)
    for argv in json.loads(sys.argv[1]):
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, devnull, 1), (os.POSIX_SPAWN_DUP2, devnull, 2)])
        _, status, usage = os.wait4(pid, 0)
        if os.waitstatus_to_exitcode(status) < 0:
            sys.exit(f"{argv[3:]}: killed by signal {-os.waitstatus_to_exitcode(status)}")
        peaks.append(usage.ru_maxrss)
    print(json.dumps(peaks))


if __name__ == "__main__":
    main()
