"""Starts the benchmark's commands from a small process of its own.

Linux carries the memory high-water mark of a process that calls exec into
the peak RSS of the program it starts, and `posix_spawn` shares its caller's
memory until that exec.  A command started straight from the benchmark's
process would therefore report the benchmark's peak RSS whenever that is the
larger.  This process stays small, so each command's peak is its own.

It reads one JSON request a line on stdin, `[args, stdout path, stderr path,
timeout s]`, runs the command with this process's environment, and answers
with one JSON line on stdout, `[exit code, wall s, peak RSS KiB]`.  It ends
at the end of its input, or on SIGTERM; it kills and reaps a running command
before it ends.
"""

import json
import os
import signal
import sys
import time


def run(args: list[str], out: str, err: str, timeout: float) -> list:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(args[0], args, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # SIGTERM: leave no command behind
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    return [os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss]


def main() -> None:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for line in sys.stdin:
        print(json.dumps(run(*json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
