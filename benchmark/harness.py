"""Worker processes with enforced per-operation deadlines, and the
host-speed correction of measured times."""

import json
import os
import selectors
import statistics
import subprocess
import sys
import time

import refkernel

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_TIMEOUT_S = 60.0


class WorkerDied(RuntimeError):
    pass


class Worker:
    """A fresh `worker.py` process.  `call` returns the reply, or None when
    the deadline passed, in which case the process has been killed; it
    raises WorkerDied when the process ended by itself."""

    def __init__(self, root, workload, spans_path="", sample=True, stderr=None):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--root", root, "--workload", workload]
        if spans_path:
            cmd += ["--spans", spans_path]
        if not sample:
            cmd += ["--sample-interval", "0"]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=stderr, cwd=HERE)
        self._buf = b""
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.proc.stdout, selectors.EVENT_READ)
        ready = self._recv(SETUP_TIMEOUT_S)
        if ready is None or "ready" not in ready:
            self.kill()
            raise WorkerDied("worker did not start (exit code %s)" % self.proc.returncode)
        # from spawn to ready, less the reference kernels run after set-up
        self.setup_raw_s = time.perf_counter() - t0 - sum(ready["refs"])
        self.setup_factor = host_factor(ready["refs"])
        self.rss_mb = ready["rss_mb"]

    def _recv(self, timeout):
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not self._sel.select(left):
                return None
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def call(self, cmd, deadline_s):
        try:
            self.proc.stdin.write((json.dumps(cmd) + "\n").encode())
            self.proc.stdin.flush()
            reply = self._recv(deadline_s)
        except BrokenPipeError:
            reply = None
        if reply is None:
            exited = self.proc.poll() is not None
            self.kill()
            if exited:
                raise WorkerDied("worker exited (code %s)" % self.proc.returncode)
        return reply

    def close(self):
        """Ask the worker to finish (it writes its spans) and wait for it."""
        if self.proc.returncode is not None:
            return     # already killed and reaped
        try:
            self.proc.stdin.write(b'{"op": "exit"}\n')
            self.proc.stdin.close()
            self._recv(SETUP_TIMEOUT_S)
            self.proc.wait(timeout=SETUP_TIMEOUT_S)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            pass
        self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._sel.close()
        for fh in (self.proc.stdin, self.proc.stdout):
            try:
                fh.close()
            except (BrokenPipeError, OSError):
                pass


def host_factor(refs):
    """Host slowdown against the reference: >1 means slower than nominal."""
    return statistics.median(refs) / refkernel.REFERENCE_S


def windowed_factors(refs, half_width=1):
    """Per-position host factors: the median of reference timings within
    `half_width` positions.  Host speed here changes within seconds, so the
    nearest timings track it best; the median keeps one disturbed timing
    from dominating."""
    out = []
    n = len(refs)
    for i in range(n):
        window = refs[max(0, i - half_width):min(n, i + half_width + 1)]
        out.append(host_factor(window))
    return out


def op_factor(before, inside):
    """Host factor of one operation: each reference timing stands for an
    equal slice of it, the factor before it for the first slice."""
    factors = [before] + [t / refkernel.REFERENCE_S for t in inside]
    return len(factors) / sum(1.0 / f for f in factors)

