"""HTTP client for the race-check daemon (stdlib ``urllib`` only).

`repro submit/status/result/queue` are thin wrappers over this class;
it is also the programmatic interface::

    client = DaemonClient("http://127.0.0.1:8642")
    jobs = client.submit_suite("paper")
    done = client.wait([j["job_id"] for j in jobs], timeout=300)
    for job_id, status in done.items():
        print(job_id, status["result"]["status"])

Errors: any non-2xx response raises :class:`DaemonError` carrying the
HTTP status and the server's ``error`` string; connection failures
raise :class:`DaemonUnavailable` so callers can distinguish "the
daemon rejected this" from "there is no daemon".
"""
from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Dict, Iterable, List, Optional

from ..jobs import JobResult, JobState


class DaemonError(RuntimeError):
    """The daemon answered with an error status."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(f"HTTP {code}: {message}")
        self.code = code
        self.message = message


class DaemonUnavailable(ConnectionError):
    """No daemon is listening at the given URL."""


class DaemonClient:
    """JSON-over-HTTP client; one instance per daemon URL."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------

    def _request(self, path: str, body: Optional[dict] = None,
                 ok_codes: Iterable[int] = (200,)) -> dict:
        url = self.base_url + path
        data = json.dumps(body).encode("utf-8") \
            if body is not None else None
        req = urllib.request.Request(
            url, data=data,
            headers={"Content-Type": "application/json"}
            if data else {})
        try:
            with urllib.request.urlopen(req,
                                        timeout=self.timeout) as resp:
                payload = json.loads(resp.read())
                code = resp.status
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read()).get("error", str(exc))
            except Exception:
                message = str(exc)
            if exc.code in ok_codes:
                return {"__code__": exc.code, "error": message}
            raise DaemonError(exc.code, message) from None
        except urllib.error.URLError as exc:
            raise DaemonUnavailable(
                f"no daemon at {self.base_url}: {exc.reason}") from None
        if code not in ok_codes:
            raise DaemonError(code, payload.get("error", ""))
        payload["__code__"] = code
        return payload

    # ------------------------------------------------------------------
    # the five endpoints
    # ------------------------------------------------------------------

    def healthz(self) -> bool:
        return bool(self._request("/healthz").get("ok"))

    def submit(self, body: dict) -> List[dict]:
        """Raw submit; *body* as the API expects (source or suite)."""
        return self._request("/submit", body=body)["jobs"]

    def submit_source(self, source: str, label: str = "adhoc",
                      **config) -> dict:
        body = dict(config, source=source, label=label)
        return self.submit(body)[0]

    def submit_suite(self, suite: str, engine: str = "sesa",
                     swarm: Optional[int] = None) -> List[dict]:
        body = {"suite": suite, "engine": engine}
        if swarm:
            body["swarm"] = swarm
        return self.submit(body)

    def status(self, job_id: str) -> dict:
        return self._request(f"/status/{job_id}")

    def result(self, job_id: str) -> dict:
        """Terminal job: status dict with ``result`` attached. A job
        still in flight returns the bare status (``terminal: False``,
        HTTP 202)."""
        return self._request(f"/result/{job_id}", ok_codes=(200, 202))

    def queue(self) -> dict:
        return self._request("/queue")

    def stream(self, since: int = 0, follow: float = 0.0):
        """Yield telemetry events from the NDJSON tail."""
        url = f"{self.base_url}/stream?since={since}&follow={follow}"
        try:
            with urllib.request.urlopen(
                    url, timeout=self.timeout + follow) as resp:
                for line in resp:
                    line = line.strip()
                    if line:
                        yield json.loads(line)
        except urllib.error.URLError as exc:
            raise DaemonUnavailable(
                f"no daemon at {self.base_url}: {exc}") from None

    # ------------------------------------------------------------------
    # polling convenience
    # ------------------------------------------------------------------

    def wait(self, job_ids: Iterable[str], timeout: float = 300.0,
             poll: float = 0.2) -> Dict[str, dict]:
        """Poll until every job is terminal (or *timeout*); returns
        ``{job_id: result_payload}`` for those that finished."""
        pending = list(dict.fromkeys(job_ids))
        results: Dict[str, dict] = {}
        deadline = time.monotonic() + timeout
        while pending and time.monotonic() < deadline:
            still = []
            for job_id in pending:
                payload = self.result(job_id)
                if payload.get("terminal"):
                    results[job_id] = payload
                else:
                    still.append(job_id)
            pending = still
            if pending:
                time.sleep(poll)
        return results


def format_result_line(payload: dict, width: int = 0) -> str:
    """One human-readable line per terminal job (CLI output)."""
    label = payload.get("label") or payload.get("job_id", "?")
    state = payload.get("state", "?")
    result = JobResult.from_dict(payload.get("result") or {})
    if state == JobState.DONE:
        detail = ", ".join(result.issue_tags()) or "clean"
        if result.cached:
            detail += " [cached]"
    else:
        detail = (payload.get("error") or result.error
                  or "-").strip().splitlines()[-1]
    elapsed = result.elapsed_seconds or 0.0
    return (f"{state.upper():8s} {label:{width}s} "
            f"{elapsed:7.2f}s  {detail}")
