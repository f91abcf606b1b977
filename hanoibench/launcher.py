"""Spawn the benchmark's commands from a process that stays small.

A child's peak RSS as ``wait4`` reports it includes the peak of the
process that spawned it, because the child starts as a copy of it.  The
benchmark process grows while it certifies outputs, so it spawns every
command through this launcher, whose own peak stays near a bare
interpreter's (about 14 MB), below that of any ``hanoilab`` command.

Protocol, one JSON list per line: the request on stdin is
``[argv, stdout_path, stderr_path]``; the reply on stdout is
``[exit_code, wall_s, maxrss_kb]``.  The command's stdin is /dev/null and its
stdout and stderr go to the two files.  The launcher exits at the end
of its stdin.
"""

import json
import os
import sys
import time

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main() -> None:
    for line in sys.stdin:
        argv, out_path, err_path = json.loads(line)
        out = os.open(out_path, FLAGS, 0o644)
        err = os.open(err_path, FLAGS, 0o644)
        try:
            actions = [
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_DUP2, out, 1),
                (os.POSIX_SPAWN_DUP2, err, 2),
            ]
            start = time.perf_counter()
            pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(out)
            os.close(err)
        reply = [os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss]
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
