"""Generator backends: remote chat-completion client, deterministic mocks, replay cache."""

from __future__ import annotations

import base64
import mimetypes
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Protocol

from .core import WAIT_TOKEN, CommentaryTrack, Seconds
from .prompting import RenderedPrompt

ENV_API_BASE = "COMMENTARY_API_BASE"
ENV_API_KEY = "COMMENTARY_API_KEY"
ENV_MODEL = "COMMENTARY_MODEL"

DEFAULT_ATTACHMENT_LIMIT = 32
DEFAULT_MAX_OUTPUT_UNITS = 256
DEFAULT_TEMPERATURE = 0.0

CACHE_MODES = ("record", "replay", "passthrough")


class BackendError(Exception):
    """Base class for generator failures."""


class TransportError(BackendError):
    """Network-level failure or unexpected server response."""


class AuthenticationError(BackendError):
    """Endpoint rejected the credentials; retrying cannot help."""


class RateLimitError(BackendError):
    """Endpoint asked us to back off; retried with exponential delay."""


class PayloadTooLargeError(BackendError):
    """Request exceeds the payload limit; retrying cannot help."""


class ReplayMissError(BackendError):
    """Replay cache has no entry for the requested prompt digest."""

    def __init__(self, digest: str) -> None:
        super().__init__(f"replay cache miss for digest {digest}")
        self.digest = digest


@dataclass(frozen=True)
class GeneratorRequest:
    """One backend query: rendered prompt plus decoding parameters."""

    prompt: RenderedPrompt
    model_id: str
    max_output_units: int = DEFAULT_MAX_OUTPUT_UNITS
    temperature: float = DEFAULT_TEMPERATURE
    decision_time: Seconds | None = None
    attachment_limit: int = DEFAULT_ATTACHMENT_LIMIT

    def __post_init__(self) -> None:
        if self.max_output_units < 1:
            raise ValueError("max_output_units must be positive")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature must lie in [0, 2], got {self.temperature}")
        if len(self.prompt.attachments) > self.attachment_limit:
            raise PayloadTooLargeError(
                f"{len(self.prompt.attachments)} attachments exceed the "
                f"limit of {self.attachment_limit}"
            )


@dataclass(frozen=True)
class GeneratorResponse:
    raw_text: str
    latency: Seconds
    model_id: str

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("latency must be non-negative")


class Generator(Protocol):
    """Anything that can answer one prompt at a time."""

    model_id: str

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        ...


class ScriptedBackend:
    """Deterministic mock: responses keyed by prompt digest or call index."""

    def __init__(
        self,
        script: Mapping[int | str, str] | None = None,
        default: str = WAIT_TOKEN,
        model_id: str = "scripted",
    ) -> None:
        self._script: dict[int | str, str] = dict(script or {})
        self._default = default
        self._calls = 0
        self.model_id = model_id

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        index = self._calls
        self._calls += 1
        raw = self._script.get(request.prompt.digest)
        if raw is None:
            raw = self._script.get(index, self._default)
        return GeneratorResponse(raw_text=raw, latency=0.0, model_id=self.model_id)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        """Load a script file of `key<TAB>response` lines.

        Keys are decision indexes (integers), prompt digests, or the word
        `default` for the fallback response.
        """
        script: dict[int | str, str] = {}
        default = WAIT_TOKEN
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            if not line.strip():
                continue
            key, sep, response = line.partition("\t")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key<TAB>response'")
            if key == "default":
                default = response
            else:
                try:
                    script[int(key)] = response
                except ValueError:
                    script[key] = response
        return cls(script=script, default=default)


class OracleBackend:
    """Mock that replays a reference track as its timing becomes observable.

    At a decision at time t it speaks the earliest unemitted reference
    utterance whose start lies in the window since the previous decision,
    otherwise it waits. Each reference utterance is emitted at most once.
    """

    model_id = "oracle"

    def __init__(self, reference: CommentaryTrack) -> None:
        self._reference = reference
        self._emitted: set[int] = set()
        self._prev_time: float | None = None

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        t = request.decision_time
        if t is None:
            raise ValueError("OracleBackend requires decision_time on the request")
        prev = self._prev_time
        self._prev_time = t
        for i, u in enumerate(self._reference.utterances):
            if u.start > t:
                break
            if i in self._emitted:
                continue
            if prev is None or u.start > prev:
                self._emitted.add(i)
                return GeneratorResponse(raw_text=u.text, latency=0.0, model_id=self.model_id)
        return GeneratorResponse(raw_text=WAIT_TOKEN, latency=0.0, model_id=self.model_id)


class HttpReply(Protocol):
    """What the backends read of an HTTP reply; `requests.Response` has it too."""

    status_code: int

    @property
    def text(self) -> str:
        ...

    def json(self) -> Any:
        ...


class HttpSession(Protocol):
    """What the backends need of an HTTP session; `requests.Session` has it too.

    `post` raises `OSError` when no reply arrives.
    """

    def post(
        self, url: str, *, json: Any, headers: dict[str, str], timeout: float
    ) -> HttpReply:
        ...


class _Reply:
    """A reply whose body has been read in full."""

    def __init__(self, status_code: int, content: bytes) -> None:
        self.status_code = status_code
        self.content = content

    @property
    def text(self) -> str:
        return self.content.decode("utf-8", errors="replace")

    def json(self) -> Any:
        import json

        return json.loads(self.content)


def _basic_auth(user: str, password: str) -> str:
    return "Basic " + base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")


def _netrc_auth(host: str) -> tuple[str, str] | None:
    """Login and password for `host` from `$NETRC` or `~/.netrc`, if it has them."""
    import netrc

    path = os.environ.get("NETRC") or os.path.join(os.path.expanduser("~"), ".netrc")
    try:
        entry = netrc.netrc(path).authenticators(host)
    except (OSError, netrc.NetrcParseError):
        return None
    if entry is None:
        return None
    login, account, password = entry
    return login or account or "", password or ""


def _dropped(sock: Any) -> bool:
    """Whether an idle connection's socket is readable, that is closed by the server."""
    import select

    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class _HttpSession:
    """Keep-alive HTTP/1.1 client for one endpoint, built on `http.client`.

    The proxy, CA-bundle and netrc settings are read from the environment
    once, here. Netrc credentials are sent only on requests that carry no
    `Authorization` header of their own. Idle connections wait in a
    lock-guarded list that the backend's threads share; a connection goes
    back only after its whole reply has been read and the server keeps it
    open, and one the server has closed meanwhile is dropped before reuse.
    Redirects are not followed and no compressed reply is asked for.

    The stdlib HTTP modules are imported here, so a run that sends no HTTP
    never loads them. `http.client.HTTPException`, which is not an `OSError`,
    is raised as `ConnectionError`.
    """

    def __init__(self, base_url: str) -> None:
        import http.client  # noqa: F401  (loaded with the client, not by the first POST)
        from urllib.parse import unquote, urlsplit
        from urllib.request import getproxies_environment, proxy_bypass_environment

        url = urlsplit(base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint must be an http:// or https:// URL, got {base_url!r}")
        self._https = url.scheme == "https"
        self._host = url.hostname
        self._port = url.port or (443 if self._https else 80)
        env = getproxies_environment()
        proxy = env.get(url.scheme) or env.get("all")
        if proxy and proxy_bypass_environment(f"{self._host}:{self._port}", env):
            proxy = None
        self.proxies = {url.scheme: proxy} if proxy else {}
        self.verify: str | bool = (
            os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE") or True
        )
        self.auth = _netrc_auth(self._host)
        self._proxy: tuple[str, int] | None = None
        self._proxy_headers: dict[str, str] = {}
        if proxy:
            purl = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            self._proxy = (purl.hostname or "", purl.port or 80)
            if purl.username is not None:
                self._proxy_headers["Proxy-Authorization"] = _basic_auth(
                    unquote(purl.username), unquote(purl.password or "")
                )
        self._tls: Any = None
        self._idle: list[Any] = []
        self._lock = threading.Lock()

    def _tls_context(self) -> Any:
        if self._tls is None:
            import ssl

            if self.verify is True:
                self._tls = ssl.create_default_context()
            elif os.path.isdir(self.verify):
                self._tls = ssl.create_default_context(capath=self.verify)
            else:
                self._tls = ssl.create_default_context(cafile=self.verify)
        return self._tls

    def _connection(self) -> Any:
        """An idle connection the server has kept open, or a new one."""
        while True:
            with self._lock:
                if not self._idle:
                    break
                conn = self._idle.pop()
            if not _dropped(conn.sock):
                return conn
            conn.close()
        import http.client

        host, port = self._proxy or (self._host, self._port)
        if not self._https:
            return http.client.HTTPConnection(host, port)
        conn = http.client.HTTPSConnection(host, port, context=self._tls_context())
        if self._proxy:
            conn.set_tunnel(self._host, self._port, self._proxy_headers)
        return conn

    def post(self, url: str, *, json: Any, headers: dict[str, str], timeout: float) -> _Reply:
        import http.client
        from json import dumps
        from urllib.parse import urlsplit

        body = dumps(json).encode("utf-8")
        headers = dict(headers)
        if self.auth and "Authorization" not in headers:
            headers["Authorization"] = _basic_auth(*self.auth)
        if self._proxy and not self._https:
            headers.update(self._proxy_headers)
            target = url
        else:
            parts = urlsplit(url)
            target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        conn = self._connection()
        conn.timeout = timeout
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
        try:
            conn.request("POST", target, body, headers)
            resp = conn.getresponse()
            content = resp.read()
        except http.client.HTTPException as exc:
            conn.close()
            raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return _Reply(resp.status, content)


def encode_image_uri(uri: str) -> str:
    """Inline a local image as a base64 data URI; pass remote/data URIs through."""
    if uri.startswith(("data:", "http://", "https://")):
        return uri
    path = Path(uri[7:]) if uri.startswith("file://") else Path(uri)
    data = path.read_bytes()
    mime = mimetypes.guess_type(path.name)[0] or "image/jpeg"
    return f"data:{mime};base64,{base64.b64encode(data).decode('ascii')}"


def build_chat_payload(request: GeneratorRequest) -> dict:
    """Chat-completion JSON body with the prompt text and inline image parts."""
    parts: list[dict] = [{"type": "text", "text": request.prompt.text}]
    for uri in request.prompt.attachments:
        parts.append({"type": "image_url", "image_url": {"url": encode_image_uri(uri)}})
    return {
        "model": request.model_id,
        "temperature": request.temperature,
        "max_tokens": request.max_output_units,
        "messages": [{"role": "user", "content": parts}],
    }


class RemoteChatBackend:
    """Client for chat-completion endpoints that accept inline image attachments.

    Configured from COMMENTARY_API_BASE / COMMENTARY_API_KEY / COMMENTARY_MODEL
    unless overridden. Rate limits, server errors and transport failures are
    retried with bounded exponential backoff (3 attempts total); authentication
    and payload-size rejections are not.
    """

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        model_id: str | None = None,
        timeout: float = 120.0,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        max_concurrency: int = 4,
        session: HttpSession | None = None,
    ) -> None:
        self.base_url = (base_url or os.environ.get(ENV_API_BASE, "")).rstrip("/")
        if not self.base_url:
            raise ValueError(f"no endpoint configured; set {ENV_API_BASE} or pass base_url")
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_API_KEY, "")
        self.model_id = model_id or os.environ.get(ENV_MODEL, "")
        if not self.model_id:
            raise ValueError(f"no model configured; set {ENV_MODEL} or pass model_id")
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self._session = session if session is not None else _HttpSession(self.base_url)
        self._slots = threading.Semaphore(max_concurrency)

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        payload = build_chat_payload(request)
        url = f"{self.base_url}/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        last_error: BackendError = TransportError("no attempt made")
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
            with self._slots:
                started = time.monotonic()
                try:
                    resp = self._session.post(
                        url, json=payload, headers=headers, timeout=self.timeout
                    )
                except OSError as exc:  # raised by `_HttpSession` and `requests` alike
                    last_error = TransportError(f"request to {url} failed: {exc}")
                    continue
                latency = time.monotonic() - started
            if resp.status_code == 200:
                return GeneratorResponse(
                    raw_text=_extract_content(resp), latency=latency, model_id=self.model_id
                )
            if resp.status_code in (401, 403):
                raise AuthenticationError(f"endpoint rejected credentials ({resp.status_code})")
            if resp.status_code == 413:
                raise PayloadTooLargeError("endpoint rejected the payload as too large (413)")
            if resp.status_code == 429:
                last_error = RateLimitError("endpoint rate limited the request (429)")
            elif resp.status_code >= 500:
                last_error = TransportError(f"server error {resp.status_code}")
            else:
                raise TransportError(
                    f"unexpected status {resp.status_code}: {resp.text[:200]}"
                )
        raise last_error


def _extract_content(resp: HttpReply) -> str:
    try:
        data = resp.json()
        content = data["choices"][0]["message"]["content"]
    except (ValueError, LookupError, TypeError) as exc:
        raise TransportError(f"malformed chat-completion response: {exc}") from exc
    if isinstance(content, list):
        # Some servers return structured content parts; keep the text ones.
        return "".join(part.get("text", "") for part in content if isinstance(part, dict))
    return str(content)


class ReplayCache:
    """Record/replay wrapper keyed by prompt digest, one UTF-8 file per entry.

    Entry layout: first line the digest, second line the latency in
    milliseconds, the remainder the raw response verbatim.
    """

    def __init__(self, inner: Generator, cache_dir: str | Path, mode: str) -> None:
        if mode not in CACHE_MODES:
            raise ValueError(f"cache mode must be one of {CACHE_MODES}, got {mode!r}")
        self._inner = inner
        self._dir = Path(cache_dir)
        self._mode = mode
        self._write_lock = threading.Lock()
        self.model_id = inner.model_id
        if mode == "record":
            self._dir.mkdir(parents=True, exist_ok=True)

    def _entry_path(self, digest: str) -> Path:
        return self._dir / f"{digest}.txt"

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        if self._mode == "passthrough":
            return self._inner.generate(request)
        digest = request.prompt.digest
        path = self._entry_path(digest)
        if self._mode == "replay":
            if not path.exists():
                raise ReplayMissError(digest)
            return self._read_entry(path, digest)
        response = self._inner.generate(request)
        self._write_entry(path, digest, response)
        return response

    def _read_entry(self, path: Path, digest: str) -> GeneratorResponse:
        text = path.read_text(encoding="utf-8")
        header, _, rest = text.partition("\n")
        latency_line, _, raw = rest.partition("\n")
        if header != digest:
            raise BackendError(f"cache entry {path} is corrupt: digest line {header!r}")
        try:
            latency = int(latency_line) / 1000.0
        except ValueError as exc:
            raise BackendError(f"cache entry {path} is corrupt: latency {latency_line!r}") from exc
        return GeneratorResponse(raw_text=raw, latency=latency, model_id=self.model_id)

    def _write_entry(self, path: Path, digest: str, response: GeneratorResponse) -> None:
        body = f"{digest}\n{round(response.latency * 1000)}\n{response.raw_text}"
        with self._write_lock:
            tmp = path.with_suffix(".tmp")
            tmp.write_text(body, encoding="utf-8")
            os.replace(tmp, path)

