"""Child-process harness for the ``swgate serve`` daemon.

The daemon runs as users run it -- ``python -m repro.cli serve`` with
the CLI defaults -- except for ``--port 0`` (an ephemeral port, read
back from the daemon's "listening on" banner), because a fixed port
could collide with anything else on the host, and any extra options a
caller names (the traced pass turns request tracing off for its
untraced half).
"""

import json
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request

from common import env_with_src, vm_hwm_mb

#: How long a daemon may take to print its banner and answer /healthz.
START_TIMEOUT_S = 30.0
_BANNER = re.compile(r"listening on (http://[0-9.]+:[0-9]+)")


class DaemonError(RuntimeError):
    """The daemon failed to start or died while in use."""


class Daemon:
    """One ``swgate serve`` child; use as a context manager.

    :meth:`start` (and ``__enter__``) returns once ``/healthz`` answers
    (callers time this as part of set-up); :meth:`close` (and
    ``__exit__``) sends SIGTERM, escalates to SIGKILL, and always reaps
    the child.
    """

    def __init__(self, root, *options):
        self.root = root
        self.options = options
        self.process = None
        self.url = None
        self._banner = []
        self._reader = None

    def __enter__(self):
        return self.start()

    def start(self):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             *self.options],
            cwd=self.root, env=env_with_src(self.root),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        try:
            self._wait_ready()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def _read_banner(self, found):
        # Drains the child's stdout for its whole life so a chatty
        # daemon can never block on a full pipe.
        for line in self.process.stdout:
            self._banner.append(line)
            match = _BANNER.search(line)
            if match and not found.is_set():
                self.url = match.group(1)
                found.set()
        found.set()

    def _wait_ready(self):
        deadline = time.monotonic() + START_TIMEOUT_S
        found = threading.Event()
        self._reader = threading.Thread(
            target=self._read_banner, args=(found,), daemon=True
        )
        self._reader.start()
        if not found.wait(START_TIMEOUT_S) or self.url is None:
            raise DaemonError(
                "daemon printed no listening banner: "
                + "".join(self._banner)[-2000:]
            )
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise DaemonError(
                    f"daemon exited with {self.process.returncode}"
                )
            try:
                with urllib.request.urlopen(
                    self.url + "/healthz", timeout=2.0
                ) as response:
                    if json.loads(response.read()).get("status") == "ok":
                        return
            except OSError:
                pass
            time.sleep(0.005)
        raise DaemonError("daemon never answered /healthz")

    def peak_rss_mb(self):
        """The daemon's ``VmHWM`` (read before it is stopped)."""
        if self.process is None or self.process.poll() is not None:
            raise DaemonError("daemon is not running")
        return vm_hwm_mb(self.process.pid)

    def get_json(self, path):
        with urllib.request.urlopen(self.url + path, timeout=10.0) as r:
            return json.loads(r.read())

    def close(self):
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)
        if self._reader is not None:
            self._reader.join(timeout=5.0)
        process.stdout.close()
        self.process = None
