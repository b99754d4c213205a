#!/usr/bin/env python3
"""End-to-end smoke test of the shipped serving pair, ritm_serve + ritm_query.

Usage: ritm_serve_smoke.py <ritm_serve> <ritm_query>

Starts `ritm_serve --port 0 --entries 1000 --reactors 2 --persist-dir DIR`,
reads the bound port and the trust anchor from its banner, and asks
ritm_query for serials 7 (revoked by the demo CA) and 8 (not revoked),
verifying the signed roots against the trust anchor. SIGTERM must stop the
server with exit code 0 after its shutdown checkpoint. A second server on
the same DIR must recover the 1000 entries and give the same verdicts.

Every ritm_serve started here is killed and reaped on every path, so no
process outlives the test. Exits 0 on success, 1 with a reason otherwise.
"""

import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

ENTRIES = 1000
STEP_TIMEOUT_S = 60  # generous for sanitizer builds; a normal run takes ~1 s
EXPECTED_VERDICTS = ["revoked", "accepted"]  # serials 00000007, 00000008


class Failure(Exception):
    pass


class Server:
    """One ritm_serve process whose stdout is collected line by line."""

    def __init__(self, binary, persist_dir):
        self.proc = subprocess.Popen(
            [binary, "--port", "0", "--entries", str(ENTRIES),
             "--reactors", "2", "--persist-dir", persist_dir],
            stdout=subprocess.PIPE, text=True)
        self.lines = []
        self.cond = threading.Condition()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            with self.cond:
                self.lines.append(line.rstrip("\n"))
                self.cond.notify_all()
        with self.cond:
            self.lines.append(None)  # EOF
            self.cond.notify_all()

    def wait_for(self, pattern):
        """Returns the first match of `pattern` in the output so far or to come."""
        regex = re.compile(pattern)
        deadline = time.monotonic() + STEP_TIMEOUT_S
        seen = 0
        with self.cond:
            while True:
                for line in self.lines[seen:]:
                    if line is None:
                        raise Failure(f"ritm_serve exited before printing /{pattern}/")
                    match = regex.search(line)
                    if match:
                        return match
                seen = len(self.lines)
                left = deadline - time.monotonic()
                if left <= 0:
                    raise Failure(f"no /{pattern}/ within {STEP_TIMEOUT_S} s")
                self.cond.wait(left)

    def terminate(self):
        """SIGTERM, then the exit code and everything the server printed."""
        self.proc.send_signal(signal.SIGTERM)
        code = self.proc.wait(timeout=STEP_TIMEOUT_S)
        self.reader.join(timeout=STEP_TIMEOUT_S)
        return code, [line for line in self.lines if line is not None]

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def query_verdicts(binary, port, trust):
    out = subprocess.run(
        [binary, "--port", port, "--serial", "00000007", "--serial",
         "00000008", "--trust", trust],
        capture_output=True, text=True, timeout=STEP_TIMEOUT_S)
    if out.returncode != 0:
        raise Failure(f"ritm_query exited {out.returncode}:\n{out.stdout}{out.stderr}")
    return re.findall(r"client verdict: (\S+)", out.stdout)


def serve_and_check(serve_bin, query_bin, persist_dir, recovered):
    server = Server(serve_bin, persist_dir)
    try:
        port = server.wait_for(r"listening on 127\.0\.0\.1:(\d+)").group(1)
        trust = server.wait_for(r"^  trust\s+([0-9a-f]+)$").group(1)
        got = server.wait_for(r"^  persist .*\(recovered (\d+) entries").group(1)
        if int(got) != recovered:
            raise Failure(f"banner says recovered {got} entries, expected {recovered}")
        verdicts = query_verdicts(query_bin, port, trust)
        if verdicts != EXPECTED_VERDICTS:
            raise Failure(f"verdicts {verdicts}, expected {EXPECTED_VERDICTS}")
        code, lines = server.terminate()
        if code != 0:
            raise Failure(f"ritm_serve exited {code} on SIGTERM")
        if not any(re.match(r"persist: [1-9]\d* checkpoints", l) for l in lines):
            raise Failure("no shutdown checkpoint in ritm_serve's exit banner")
        print(f"ok: recovered {recovered}, verdicts {verdicts}, exit 0 after checkpoint")
    finally:
        server.kill()


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    serve_bin, query_bin = (os.path.abspath(p) for p in sys.argv[1:])
    with tempfile.TemporaryDirectory(prefix="ritm_serve_smoke.") as persist_dir:
        try:
            serve_and_check(serve_bin, query_bin, persist_dir, recovered=0)
            serve_and_check(serve_bin, query_bin, persist_dir, recovered=ENTRIES)
        except (Failure, subprocess.TimeoutExpired) as e:
            print(f"FAIL: {e}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
