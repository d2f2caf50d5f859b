"""Generator backends: remote chat-completion client, deterministic mocks, replay cache."""

from __future__ import annotations

import bisect
import errno
import hashlib
import os
import re
import threading
import time
from functools import cached_property, lru_cache, partial
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Protocol
from urllib.parse import unquote, urlsplit

from .core import (
    WAIT_TOKEN,
    CommentaryTrack,
    Record,
    Seconds,
    entries_ending,
    from_ms,
    read_utf8,
    to_ms,
)
from .prompting import RenderedPrompt

ENV_API_BASE = "COMMENTARY_API_BASE"
ENV_API_KEY = "COMMENTARY_API_KEY"
ENV_MODEL = "COMMENTARY_MODEL"

ATTACHMENT_LIMIT = 32
# The decoding settings of every request; the replay cache keys by them too.
MAX_OUTPUT_UNITS = 256
TEMPERATURE = 0.0
# Every endpoint POST: attempts per request (the first included), the backoff
# before retry n of BACKOFF_BASE * 2**(n - 1) seconds, and requests in flight.
MAX_ATTEMPTS = 3
BACKOFF_BASE = 0.5
MAX_CONCURRENCY = 4

CACHE_MODES = ("record", "replay")
CACHE_LOG_NAME = "cache.log"
CACHE_LOG_HEADER = b"#commentary-cache 2\n"
_OLD_ENTRY_NAME = re.compile(r"[0-9a-f]{16}\.txt")  # `<digest>.txt` of the first cache format


def _warn(message: str, *args: object) -> None:
    """Log a warning by the `commentary.backends` logger; `logging` loads at the first."""
    import logging

    logging.getLogger(__name__).warning(message, *args)


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


class ReplayMissError(Exception):
    """Replay cache has no entry for the requested prompt digest."""

    def __init__(self, digest: str, message: str | None = None) -> None:
        super().__init__(message or f"replay cache miss: no entry for digest {digest}")
        self.digest = digest


class ReplayMismatchError(ReplayMissError):
    """Replay cache holds the prompt digest only under other request settings."""

    def __init__(self, recorded: "CacheKey", current: "CacheKey") -> None:
        self.fields = tuple(
            name for name, old, new in zip(CacheKey._fields, recorded, current) if old != new
        )
        detail = ", ".join(
            f"{name} {getattr(recorded, name)!r} (now {getattr(current, name)!r})"
            for name in self.fields
        )
        super().__init__(
            current.digest,
            f"replay cache miss: the record for digest {current.digest} "
            f"was made with other settings: {detail}",
        )


class _Frame:
    """A local frame file's bytes, read once, and their base64 and SHA-256 digest,
    each made from those bytes at first use."""

    __slots__ = ("data", "_base64", "_digest")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self._base64: bytes | None = None
        self._digest: bytes | None = None

    def base64(self) -> bytes:
        if self._base64 is None:
            import base64

            self._base64 = base64.b64encode(self.data)
        return self._base64

    def digest(self) -> bytes:
        if self._digest is None:
            self._digest = hashlib.sha256(self.data).digest()
        return self._digest


class ReadAhead:
    """One session's frames, made ready for its next request while the current one is in flight.

    `run_session` makes one per session when its backend `reads_ahead`,
    passes it to each request, and sets `next` before each request to the
    frames the next request holds at the least. During the request's POST,
    `warm` keeps that request's frames and reads, base64-encodes and hashes
    each frame of `next` it lacks; the next request takes its frames from
    there, and what it does not take is dropped at the following `warm`. A
    read that fails is not kept: the request that needs the frame reads it
    itself and reports the failure.
    """

    __slots__ = ("next", "ready")

    def __init__(self) -> None:
        self.next: tuple[str, ...] = ()
        self.ready: dict[str, _Frame] = {}

    def warm(self, held: Mapping[str, _Frame | OSError | None]) -> None:
        """Make the frames of `next` ready, handing on those of `held`, the current request's."""
        ready = {uri: frame for uri, frame in held.items() if isinstance(frame, _Frame)}
        for uri in self.next:
            if uri in ready:
                continue
            try:
                path = _local_path(uri)
                if path is None:
                    continue
                frame = _Frame(_read_file(path))
            except OSError:
                continue
            frame.base64()
            frame.digest()
            ready[uri] = frame
        self.ready = ready


class GeneratorRequest(Record):
    """One backend query: the rendered prompt, decoded with `TEMPERATURE` and
    at most `MAX_OUTPUT_UNITS` tokens.

    `read_ahead`, the session's `ReadAhead` when its backend reads ahead,
    supplies the frames made ready during the previous request. It is no
    field: it takes no part in ==, hash or repr.
    """

    _fields = ("prompt", "model_id", "decision_time")

    def __init__(
        self,
        prompt: RenderedPrompt,
        model_id: str,
        decision_time: Seconds | None = None,
        read_ahead: ReadAhead | None = None,
    ) -> None:
        if len(prompt.attachments) > ATTACHMENT_LIMIT:
            raise PayloadTooLargeError(
                f"{len(prompt.attachments)} attachments exceed the limit of {ATTACHMENT_LIMIT}"
            )
        self.__dict__.update(
            prompt=prompt, model_id=model_id, decision_time=decision_time, read_ahead=read_ahead
        )

    @cached_property
    def _frames(self) -> dict[str, _Frame | OSError | None]:
        """Each attachment's frame, taken from `read_ahead` or read at first use, then kept.

        A local file (plain path or `file:` URI) maps to its frame, or to
        the `OSError` reading it raised; data and `http(s)://` URIs map to
        None. The cache key and the request body both use these frames, so
        the key hashes exactly the bytes that were sent.
        """
        ready = self.read_ahead.ready if self.read_ahead is not None else {}
        frames: dict[str, _Frame | OSError | None] = {}
        for uri in self.prompt.attachments:
            if uri not in frames:
                frame = ready.get(uri)
                if frame is None:
                    try:
                        path = _local_path(uri)
                        frame = None if path is None else _Frame(_read_file(path))
                    except OSError as exc:
                        frame = exc.with_traceback(None)
                frames[uri] = frame
        return frames


class GeneratorResponse(Record):
    def __init__(self, raw_text: str, latency: Seconds) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.__dict__.update(raw_text=raw_text, latency=latency)


class Generator(Protocol):
    """Anything that can answer one prompt at a time.

    One whose `reads_ahead` attribute is true gets its session's `ReadAhead`
    with each request; one without that attribute reads nothing ahead.
    """

    model_id: str

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        ...


class ScriptedBackend:
    """Deterministic mock: responses keyed by prompt digest or call index."""

    model_id = "scripted"

    def __init__(
        self, script: Mapping[int | str, str] | None = None, default: str = WAIT_TOKEN
    ) -> None:
        self._script: dict[int | str, str] = dict(script or {})
        self._default = default
        self._calls = 0

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        index = self._calls
        self._calls += 1
        raw = self._script.get(request.prompt.digest)
        if raw is None:
            raw = self._script.get(index, self._default)
        return GeneratorResponse(raw_text=raw, latency=0.0)


def read_script(path: str | Path) -> tuple[dict[int | str, str], str]:
    """The responses and the fallback of a script file of `key<TAB>response` lines.

    Keys are decision indexes (integers), prompt digests, or the word
    `default` for the fallback response. A malformed file raises ValueError
    naming it.
    """
    script: dict[int | str, str] = {}
    default = WAIT_TOKEN
    for lineno, line in enumerate(read_utf8(Path(path)).splitlines(), 1):
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
    return script, default


class OracleBackend:
    """Mock that replays a reference track as its timing becomes observable.

    At a decision at time t it speaks the earliest unemitted reference
    utterance whose start lies in the window since the previous decision,
    otherwise it waits. Each reference utterance is emitted at most once.
    """

    model_id = "oracle"
    # Every Wait is this one immutable response.
    _WAIT = GeneratorResponse(raw_text=WAIT_TOKEN, latency=0.0)

    def __init__(self, reference: CommentaryTrack) -> None:
        self._reference = reference
        self._starts = [u.start for u in reference.utterances]  # strictly increasing
        self._emitted: set[int] = set()
        self._prev_time: float | None = None

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        t = request.decision_time
        if t is None:
            raise ValueError("OracleBackend requires decision_time on the request")
        prev = self._prev_time
        self._prev_time = t
        # The utterances starting in (prev, t] are [i, end); with decision times
        # that never go back, none of them has been emitted yet.
        i = 0 if prev is None else bisect.bisect_right(self._starts, prev)
        end = bisect.bisect_right(self._starts, t)
        while i < end and i in self._emitted:
            i += 1
        if i < end:
            self._emitted.add(i)
            text = self._reference.utterances[i].text
            return GeneratorResponse(text, 0.0)
        return self._WAIT


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

    `post` sends `data` as the request body as it is, and raises `OSError`
    when no reply arrives.
    """

    def post(
        self, url: str, *, data: bytes, headers: dict[str, str], timeout: float
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
    import base64

    return "Basic " + base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")


def _netrc_auth(host: str) -> tuple[str, str] | None:
    """Login and password for `host` from `$NETRC` or `~/.netrc`, if it has them.

    `netrc` (and the `shlex` it loads) is imported only when the file exists.
    """
    path = os.environ.get("NETRC") or os.path.join(os.path.expanduser("~"), ".netrc")
    if not os.path.exists(path):
        return None
    import netrc

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


_MAX_LINE = 65536  # longest status, header or chunk-size line accepted in a reply
_MAX_FIELDS = 100  # most header (or trailer) lines accepted in a reply
_MAX_PIECE = 1 << 20  # most body bytes asked of the socket in one read
_STATUS_LINE = re.compile(rb"(HTTP/\d\.\d) (\d{3})(?: [^\r\n]*)?\r?\n")
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]{1,16})[ \t]*(?:;[^\r\n]*)?\r?\n")
_LINE_BREAK = re.compile(r"[\r\n]")


def _read_line(reader: Any) -> bytes:
    """One whole line of a reply; `ConnectionError` if it is too long or cut short."""
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ConnectionError(f"reply line longer than {_MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise ConnectionError("connection closed in a reply" if line else "connection closed")
    return line


def _read_fields(reader: Any) -> dict[bytes, bytes]:
    """Header (or trailer) lines up to the blank line, by lower-cased name."""
    fields: dict[bytes, bytes] = {}
    for _ in range(_MAX_FIELDS + 1):
        line = _read_line(reader)
        if line in (b"\r\n", b"\n"):
            return fields
        name, sep, value = line.partition(b":")
        if not sep or not name.strip():
            raise ConnectionError(f"malformed header line {line[:80]!r}")
        fields[name.strip().lower()] = value.strip()
    raise ConnectionError(f"more than {_MAX_FIELDS} header lines in a reply")


def _read_head(reader: Any) -> tuple[bytes, int, dict[bytes, bytes]]:
    """The HTTP version, status and headers of one reply head."""
    line = _read_line(reader)
    match = _STATUS_LINE.fullmatch(line)
    if match is None:
        raise ConnectionError(f"malformed status line {line[:80]!r}")
    return match[1], int(match[2]), _read_fields(reader)


def _read_exactly(reader: Any, size: int) -> bytes:
    """`size` body bytes, asked for at most `_MAX_PIECE` at a time, so that a size the
    reply states is never allocated before its bytes arrive."""
    pieces, got = [], 0
    while got < size:
        piece = reader.read(min(size - got, _MAX_PIECE))
        if not piece:
            raise ConnectionError(f"connection closed after {got} of {size} body bytes")
        pieces.append(piece)
        got += len(piece)
    return b"".join(pieces)  # one piece is returned as it is, not copied


def _read_chunked(reader: Any) -> bytes:
    parts = []
    while True:
        line = _read_line(reader)
        match = _CHUNK_SIZE.fullmatch(line)
        if match is None:
            raise ConnectionError(f"malformed chunk size line {line[:80]!r}")
        size = int(match[1], 16)
        if not size:
            break
        parts.append(_read_exactly(reader, size))
        if _read_line(reader) not in (b"\r\n", b"\n"):
            raise ConnectionError("chunk longer than its size line says")
    _read_fields(reader)  # trailers, unused
    return b"".join(parts)


def _read_reply(reader: Any) -> tuple[int, bytes, bool]:
    """The status and body of the reply to a POST, and whether the connection stays open.

    Interim 1xx replies are skipped. The body is framed by `chunked`
    transfer coding, else by `Content-Length`, else by the server closing
    the connection. A malformed or cut-short reply raises `ConnectionError`.
    """
    version, status, headers = _read_head(reader)
    while status < 200:
        version, status, headers = _read_head(reader)
    tokens = {t.strip().lower() for t in headers.get(b"connection", b"").split(b",")}
    keep = b"close" not in tokens and (version != b"HTTP/1.0" or b"keep-alive" in tokens)
    if status in (204, 304):
        return status, b"", keep
    coding = headers.get(b"transfer-encoding", b"").rsplit(b",", 1)[-1].strip().lower()
    if coding == b"chunked":
        return status, _read_chunked(reader), keep
    length = headers.get(b"content-length")
    if length is None:
        return status, reader.read(), False
    if not length.isdigit():
        raise ConnectionError(f"malformed Content-Length {length[:80]!r}")
    return status, _read_exactly(reader, int(length)), keep


class _Connection:
    """A socket to the endpoint, or to its proxy, and the buffered reader of its replies."""

    def __init__(self, sock: Any) -> None:
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class _HttpSession:
    """Keep-alive HTTP/1.1 client for one endpoint, built on `socket`.

    Each request leaves in one write of head and body, on a socket with
    Nagle's algorithm off. The head is built once per URL and header set;
    each request splices in its body's length. The proxy, CA-bundle and
    netrc settings are read from the environment once, here. Netrc
    credentials are sent only on requests that carry no `Authorization`
    header of their own. Idle connections wait in a lock-guarded list that
    the backend's threads share; a connection goes back only after its
    whole reply has been read and the server keeps it open, and one the
    server has closed meanwhile is dropped before reuse. Redirects are not
    followed and no compressed reply is asked for.

    `ssl` is imported only for an `https://` endpoint, and `urllib.request`
    only when the environment names a proxy variable, so a run that sends
    no HTTP, or plain HTTP without a proxy, never loads them. Nor does
    plain HTTP load the IDNA codec, or `netrc` when there is no netrc file.
    """

    def __init__(self, base_url: str) -> None:
        import socket  # noqa: F401  (loaded with the client, not by the first POST)

        url = urlsplit(base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint must be an http:// or https:// URL, got {base_url!r}")
        self._https = url.scheme == "https"
        self._host = _ascii_host(url.hostname)
        default_port = 443 if self._https else 80
        self._port = url.port or default_port
        host = f"[{self._host}]" if ":" in self._host else self._host
        self._authority = f"{host}:{self._port}"
        self._host_field = host if self._port == default_port else self._authority
        proxy = None
        if any(name.lower().endswith("_proxy") for name in os.environ):
            from urllib.request import getproxies_environment, proxy_bypass_environment

            env = getproxies_environment()
            proxy = env.get(url.scheme) or env.get("all")
            if proxy and proxy_bypass_environment(f"{url.hostname}:{self._port}", env):
                proxy = None
        self.proxies = {url.scheme: proxy} if proxy else {}
        self.verify: str | bool = (
            os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE") or True
        )
        self.auth = _netrc_auth(url.hostname)
        # Hosts go to `getaddrinfo` as bytes: a str host makes it load the IDNA codec.
        self._address = (self._host.encode("ascii"), self._port)
        self._proxy: tuple[bytes, int] | None = None
        self._proxy_headers: dict[str, str] = {}
        if proxy:
            purl = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            self._proxy = (_ascii_host(purl.hostname or "").encode("ascii"), purl.port or 80)
            if purl.username is not None:
                self._proxy_headers["Proxy-Authorization"] = _basic_auth(
                    unquote(purl.username), unquote(purl.password or "")
                )
        self._tls: Any = None
        self._idle: list[_Connection] = []
        self._lock = threading.Lock()
        # The last (url, headers) posted and its head, split where the Content-Length
        # value goes; replaced by one assignment, so the threads can share it.
        self._head: tuple[str, dict[str, str], bytes, bytes] | None = None

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

    def _connection(self, timeout: float) -> _Connection:
        """An idle connection the server has kept open, or a new one."""
        while True:
            with self._lock:
                if not self._idle:
                    break
                conn = self._idle.pop()
            if not _dropped(conn.sock):
                if conn.sock.gettimeout() != timeout:
                    conn.sock.settimeout(timeout)
                return conn
            conn.close()
        import socket

        sock = socket.create_connection(self._proxy or self._address, timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._https:
                if self._proxy:
                    self._tunnel(sock)
                sock = self._tls_context().wrap_socket(sock, server_hostname=self._host)
        except BaseException:
            sock.close()
            raise
        return _Connection(sock)

    def _tunnel(self, sock: Any) -> None:
        """Ask the proxy for a `CONNECT` tunnel to the endpoint on `sock`."""
        head = _request_head(
            f"CONNECT {self._authority} HTTP/1.1", {"Host": self._authority, **self._proxy_headers}
        )
        sock.sendall(head)
        reader = sock.makefile("rb")
        try:
            _, status, _ = _read_head(reader)
        finally:
            reader.close()
        if status != 200:
            raise ConnectionError(f"proxy refused the tunnel to {self._authority}: {status}")

    def _split_head(self, url: str, headers: dict[str, str]) -> tuple[bytes, bytes]:
        """The head of a POST to `url` with `headers`, cut where the Content-Length value goes.

        The session sets `Content-Length` itself, whatever `headers` say.
        `ValueError` if a header would hold a line break.
        """
        fields = {
            "Host": self._host_field,
            "Accept-Encoding": "identity",
            "Content-Length": "",
            **headers,
        }
        fields["Content-Length"] = ""  # in its place, empty whatever `headers` say
        if self.auth and "Authorization" not in headers:
            fields["Authorization"] = _basic_auth(*self.auth)
        if self._proxy and not self._https:
            fields.update(self._proxy_headers)
            target = url
        else:
            parts = urlsplit(url)
            target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        head = _request_head(f"POST {target} HTTP/1.1", fields)
        before, _, after = head.partition(b"\r\nContent-Length: \r\n")
        return before + b"\r\nContent-Length: ", b"\r\n" + after

    def post(
        self,
        url: str,
        *,
        data: bytes,
        headers: dict[str, str],
        timeout: float,
        in_flight: Callable[[], None] | None = None,
    ) -> _Reply:
        """POST `data` to `url`; `in_flight`, if given, runs once the request is sent,
        before its reply is read."""
        head = self._head
        if head is None or head[0] != url or head[1] != headers:
            head = self._head = (url, dict(headers), *self._split_head(url, headers))
        _, _, before, after = head
        conn = self._connection(timeout)
        try:
            conn.sock.sendall(b"".join((before, b"%d" % len(data), after, data)))
            if in_flight is not None:
                in_flight()
            status, content, keep = _read_reply(conn.reader)
        except BaseException:
            conn.close()
            raise
        if keep:
            with self._lock:
                self._idle.append(conn)
        else:
            conn.close()
        return _Reply(status, content)

    def close(self) -> None:
        """Close the idle connections."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


def _check_fields(fields: Mapping[str, str]) -> None:
    """`ValueError` naming the first header whose name or value holds a line break."""
    for name, value in fields.items():
        if _LINE_BREAK.search(name) or _LINE_BREAK.search(value):
            raise ValueError(f"line break in the {name!r} header")


def _request_head(request_line: str, fields: Mapping[str, str]) -> bytes:
    """A request head; `ValueError` if a header would hold a line break."""
    _check_fields(fields)
    lines = [request_line, *(f"{name}: {value}" for name, value in fields.items())]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def _ascii_host(hostname: str) -> str:
    """`hostname` with a non-ASCII name in its IDNA form."""
    return hostname if hostname.isascii() else hostname.encode("idna").decode("ascii")


def _local_path(uri: str) -> str | None:
    """The file behind a plain path or `file:` URI; None for data and remote URIs.

    A `file:` URI's path is percent-decoded (RFC 8089), its authority empty or
    `localhost`. One naming another host, or a path holding a NUL, is a file
    that does not exist: FileNotFoundError names the URI.
    """
    if uri.startswith(("data:", "http://", "https://")):
        return None
    if not uri.startswith("file:"):
        return uri
    parts = urlsplit(uri)
    path = unquote(parts.path)
    if parts.netloc.lower() not in ("", "localhost") or "\0" in path:
        raise FileNotFoundError(errno.ENOENT, "not a file on this machine", uri)
    return path


def _read_file(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


# Frame MIME types by lower-cased suffix; any other suffix is sent as JPEG. A
# fixed table keeps the request bytes independent of the machine's MIME database.
_IMAGE_TYPES = {
    ".jpg": "image/jpeg",
    ".jpeg": "image/jpeg",
    ".jpe": "image/jpeg",
    ".png": "image/png",
    ".webp": "image/webp",
    ".gif": "image/gif",
    ".bmp": "image/bmp",
    ".tif": "image/tiff",
    ".tiff": "image/tiff",
}


def _image_type(path: str) -> str:
    """The MIME type a frame file is sent as, from its suffix."""
    return _IMAGE_TYPES.get(os.path.splitext(path)[1].lower(), "image/jpeg")


# Kept: perfbench/tracing.py wraps it by this name; the chat backend sends frames without it.
def encode_image_uri(uri: str) -> str:
    """Inline a local image as a base64 data URI; pass remote/data URIs through."""
    path = _local_path(uri)
    if path is None:
        return uri
    import base64

    data = _read_file(path)
    return f"data:{_image_type(path)};base64,{base64.b64encode(data).decode('ascii')}"


# Kept: perfbench wraps and imports it; the chat backend sends `chat_request_body` instead.
def build_chat_payload(request: GeneratorRequest) -> dict:
    """Chat-completion JSON body with the prompt text and inline image parts."""
    parts: list[dict] = [{"type": "text", "text": request.prompt.text}]
    for uri in request.prompt.attachments:
        parts.append({"type": "image_url", "image_url": {"url": encode_image_uri(uri)}})
    return {
        "model": request.model_id,
        "temperature": TEMPERATURE,
        "max_tokens": MAX_OUTPUT_UNITS,
        "messages": [{"role": "user", "content": parts}],
    }


_IMAGE_PART = b', {"type": "image_url", "image_url": {"url": '
_PAYLOAD_END = b"]}]}"  # closes the content parts, the message, the messages and the payload


@lru_cache(maxsize=16)
def _body_prefix(model_id: str) -> bytes:
    """The JSON of a chat request for `model_id` up to its prompt text's string."""
    import json

    body = json.dumps(
        {
            "model": model_id,
            "temperature": TEMPERATURE,
            "max_tokens": MAX_OUTPUT_UNITS,
            "messages": [{"role": "user", "content": [{"type": "text", "text": ""}]}],
        }
    ).encode("utf-8")
    return body[: -len(b'""}' + _PAYLOAD_END)]


def chat_request_body(request: GeneratorRequest) -> bytes:
    """`json.dumps(build_chat_payload(request)).encode("utf-8")`, without escaping base64.

    The JSON up to the prompt text is built once per model id. `json`
    encodes the prompt text and each data or `http(s)://` URI; each local
    frame's base64 is spliced in as bytes, since base64 needs no JSON
    escape. The frames are the request's, each base64-encoded once, unless
    the read-ahead made it ready; one that could not be read raises its
    `OSError`, as `build_chat_payload` does.
    """
    import json

    parts = [_body_prefix(request.model_id), json.dumps(request.prompt.text).encode("ascii"), b"}"]
    frames = request._frames
    for uri in request.prompt.attachments:
        frame = frames[uri]
        parts.append(_IMAGE_PART)
        if frame is None:
            parts.append(json.dumps(uri).encode("utf-8"))
        elif isinstance(frame, OSError):
            raise frame
        else:
            parts += (
                f'"data:{_image_type(_local_path(uri))};base64,'.encode("ascii"),
                frame.base64(),
                b'"',
            )
        parts.append(b"}}")
    parts.append(_PAYLOAD_END)
    return b"".join(parts)


class _Endpoint:
    """A JSON endpoint's settings, its HTTP client and the retry loop of its POSTs.

    `base_url`, `api_key` and `model_id` each come from the subclass's
    environment variable in `_ENV` when not given. Unless a caller passes
    its own session, the client is an `_HttpSession`, which reads the proxy,
    CA-bundle and netrc settings once, here. The request headers are built
    here too, and a line break in one (say, in the API key) raises
    `ValueError` naming the header. The class settings are the chat
    backend's.
    """

    _ENV: tuple[str, str, str]  # the base URL, API key and model variables
    _ENDPOINT = "endpoint"  # what the missing base URL's error calls it
    _NEEDS_MODEL = True
    _TIMEOUT = 120.0  # seconds to connect, and to wait for each read of a reply

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        model_id: str | None = None,
        session: HttpSession | None = None,
    ) -> None:
        env_base, env_key, env_model = self._ENV
        self.base_url = (base_url or os.environ.get(env_base, "")).rstrip("/")
        if not self.base_url:
            raise ValueError(f"no {self._ENDPOINT} configured; set {env_base} or pass base_url")
        if "@" in urlsplit(self.base_url).netloc:
            # Not sent, yet echoed by every error that names the URL.
            raise ValueError(
                f"the {self._ENDPOINT} URL ({env_base}) must not hold credentials; "
                f"set {env_key} or put them in ~/.netrc"
            )
        self.api_key = api_key if api_key is not None else os.environ.get(env_key, "")
        self.model_id = model_id or os.environ.get(env_model, "")
        if self._NEEDS_MODEL and not self.model_id:
            raise ValueError(f"no model configured; set {env_model} or pass model_id")
        self._headers = {"Content-Type": "application/json"}
        if self.api_key:
            self._headers["Authorization"] = f"Bearer {self.api_key}"
        _check_fields(self._headers)  # names the header, never echoes the key
        self._session = session if session is not None else _HttpSession(self.base_url)
        self._slots = threading.Semaphore(MAX_CONCURRENCY)

    def _post(
        self, path: str, body: bytes, in_flight: Callable[[], None] | None = None
    ) -> tuple[HttpReply, float]:
        """POST the JSON `body` to `base_url + path`; the 200 reply and its latency in seconds.

        Rate limits (429), server errors (5xx) and transport failures are retried
        up to `MAX_ATTEMPTS` in all, sleeping `BACKOFF_BASE * 2**(n - 1)` seconds
        before retry n; each retry is logged as a warning, and resends `body` as
        it is. Each attempt holds one of the `MAX_CONCURRENCY` slots. Other
        statuses raise their typed `BackendError` at once.

        `in_flight` runs at most once, in the first attempt: on its own client
        while the request is in flight, on a caller's session after the reply.
        """
        url = self.base_url + path
        last_error: BackendError = TransportError("no attempt made")
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                delay = BACKOFF_BASE * (2 ** (attempt - 1))
                _warn(
                    "attempt %d of %d failed: %s; retrying in %g s",
                    attempt, MAX_ATTEMPTS, last_error, delay,
                )
                time.sleep(delay)
            with self._slots:
                started = time.monotonic()
                try:
                    if isinstance(self._session, _HttpSession):
                        resp = self._session.post(
                            url, data=body, headers=self._headers, timeout=self._TIMEOUT,
                            in_flight=in_flight,
                        )
                    else:
                        resp = self._session.post(
                            url, data=body, headers=self._headers, timeout=self._TIMEOUT
                        )
                        if in_flight is not None:
                            in_flight()
                except OSError as exc:  # raised by `_HttpSession` and `requests` alike
                    last_error = TransportError(f"request to {url} failed: {exc}")
                    continue
                finally:
                    in_flight = None
                latency = time.monotonic() - started
            if resp.status_code == 200:
                return resp, latency
            status = resp.status_code
            if status in (401, 403):
                raise AuthenticationError(f"{url} rejected the credentials ({status})")
            if status == 413:
                raise PayloadTooLargeError(f"{url} rejected the payload as too large (413)")
            if status == 429:
                last_error = RateLimitError(f"{url} rate limited the request (429)")
            elif status >= 500:
                last_error = TransportError(f"server error {status} from {url}")
            else:
                body = resp.text[:200]
                detail = f": {body}" if body else ""
                raise TransportError(f"unexpected status {status} from {url}{detail}")
        raise last_error

    def close(self) -> None:
        """Close the idle connections of its own client; a caller's session stays open."""
        if isinstance(self._session, _HttpSession):
            self._session.close()


class RemoteChatBackend(_Endpoint):
    """Client for chat-completion endpoints that accept inline image attachments.

    Configured from COMMENTARY_API_BASE / COMMENTARY_API_KEY / COMMENTARY_MODEL
    unless overridden. Rate limits, server errors and transport failures are
    retried with bounded exponential backoff (3 attempts total), resending the
    body built once per request; authentication and payload-size rejections
    are not.
    """

    _ENV = (ENV_API_BASE, ENV_API_KEY, ENV_MODEL)
    # Sessions hand it a `ReadAhead`: the next request's frames are read during each POST.
    reads_ahead = True

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        try:
            body = chat_request_body(request)
        except OSError as exc:
            raise BackendError(f"cannot read a frame for the request: {exc}") from exc
        ahead = request.read_ahead
        in_flight = None if ahead is None else partial(ahead.warm, request._frames)
        resp, latency = self._post("/chat/completions", body, in_flight)
        return GeneratorResponse(raw_text=_extract_content(resp), latency=latency)


def _extract_content(resp: HttpReply) -> str:
    try:
        data = resp.json()
        content = data["choices"][0]["message"]["content"]
    except (ValueError, LookupError, TypeError, RecursionError) as exc:  # RecursionError: deep JSON
        raise TransportError(f"malformed chat-completion response: {exc}") from exc
    if content is None:  # no text, e.g. cut off by the token limit: a Wait
        return ""
    if isinstance(content, list):
        # Some servers return structured content parts; keep the text ones. A part
        # whose text is not a string makes the reply malformed.
        texts = [part.get("text", "") for part in content if isinstance(part, dict)]
        if all(isinstance(text, str) for text in texts):
            content = "".join(texts)
    if not isinstance(content, str):
        what = f"{type(content).__name__} content"
    elif content.encode("utf-8", "replace").decode("utf-8") != content:
        # A JSON \ud83d escape without its pair: no prompt, cache log or SRT can encode it.
        what = "content holding a lone surrogate"
    else:
        return content
    raise TransportError(f"malformed chat-completion response: {what}")


class CacheKey(NamedTuple):
    """Everything a recorded reply depends on: the whole request, frames by content."""

    digest: str
    model: str
    temperature: float
    max_tokens: int
    frames: str


def _frames_hash(request: GeneratorRequest) -> str:
    """Content hash of a request's local attachments, in order, from the request's frames.

    Data and remote URIs are skipped: the prompt digest already covers them.
    A local file that does not exist hashes as a fixed marker, since scripted
    and oracle runs name frames that were never written. Any other read
    failure raises its `OSError`.
    """
    h = hashlib.sha256()
    frames = request._frames
    for uri in request.prompt.attachments:
        frame = frames[uri]
        if frame is None:
            continue
        if isinstance(frame, (FileNotFoundError, NotADirectoryError)):
            h.update(b"missing")
        elif isinstance(frame, OSError):
            raise frame
        else:
            h.update(frame.digest())
    return h.hexdigest()[:16]


class CacheLog:
    """The append-only `cache.log` of one cache dir, shared by every session of a run.

    The file starts with the line `#commentary-cache 2`. Each record is one
    JSON array line `[digest, model, temperature, max_tokens, frames,
    latency_ms, byte_len]` followed by exactly `byte_len` bytes of the raw
    reply in UTF-8. The whole log is read into an index when it is opened. In
    `record` mode each new key is appended with one write on an `O_APPEND`
    descriptor, under the log's lock; a key already in the log is not
    appended again. `replay` never modifies the file.

    A torn last record (a crash during a write) is truncated with a warning in
    `record` mode and ignored with a warning in `replay` mode. A dir of
    one-file-per-digest entries from the first cache format, or a log without
    the v2 header, raises `ValueError`.
    """

    def __init__(self, cache_dir: str | Path, mode: str) -> None:
        if mode not in CACHE_MODES:
            raise ValueError(f"cache mode must be one of {CACHE_MODES}, got {mode!r}")
        self.mode = mode
        self.path = Path(cache_dir) / CACHE_LOG_NAME
        self._records: dict[CacheKey, tuple[int, str]] = {}  # key -> (latency_ms, raw)
        self._last_key: dict[str, CacheKey] = {}  # digest -> its latest recorded key
        self._lock = threading.Lock()
        self._fd: int | None = None
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            entries = entries_ending(self.path.parent, ".txt")
            if any(_OLD_ENTRY_NAME.fullmatch(p.name) for p in entries):
                raise ValueError(
                    f"cache dir {cache_dir} holds one-file-per-digest entries of the old "
                    f"cache format and no {CACHE_LOG_NAME}; record it again"
                ) from None
            data = b""
        end = self._load(data)
        if end < len(data):
            action = "dropped" if mode == "record" else "ignored"
            _warn(
                "%s: %s a torn last record (%d bytes from byte %d)",
                self.path, action, len(data) - end, end,
            )
        if mode == "record":
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                if end < len(data):
                    os.ftruncate(self._fd, end)
                if end == 0:
                    self._append(CACHE_LOG_HEADER)
            except OSError:
                self.close()
                raise

    def _load(self, data: bytes) -> int:
        """Index the records in `data`; return the length of its complete part."""
        import json

        if not data.startswith(CACHE_LOG_HEADER):
            if CACHE_LOG_HEADER.startswith(data):  # empty, or the header line cut short
                return 0
            raise ValueError(f"{self.path} does not start with the cache v2 header line")
        pos = len(CACHE_LOG_HEADER)
        while pos < len(data):
            eol = data.find(b"\n", pos)
            if eol < 0:
                break
            try:
                *fields, latency_ms, size = json.loads(data[pos:eol])
                key = CacheKey(*fields)
                # `type(...) is int`: a bool is an int too.
                if not all(type(n) is int and n >= 0 for n in (latency_ms, size)):
                    raise ValueError("bad latency or length")
                if eol + 1 + size > len(data):
                    break
                raw = data[eol + 1 : eol + 1 + size].decode("utf-8")
                self._records.setdefault(key, (latency_ms, raw))
                self._last_key[key.digest] = key
            # TypeError: wrong shape or unhashable field; RecursionError: deep JSON
            except (ValueError, TypeError, RecursionError) as exc:
                raise ValueError(f"{self.path}: corrupt record at byte {pos}: {exc}") from exc
            pos = eol + 1 + size
        return pos

    def lookup(self, key: CacheKey) -> tuple[int, str]:
        """The recorded latency in ms and raw reply for `key`.

        Raises `ReplayMismatchError` when the digest was recorded only under
        other settings, and `ReplayMissError` when it was never recorded.
        """
        try:
            return self._records[key]
        except KeyError:
            recorded = self._last_key.get(key.digest)
            if recorded is None:
                raise ReplayMissError(key.digest) from None
            raise ReplayMismatchError(recorded, key) from None

    def add(self, key: CacheKey, response: GeneratorResponse) -> tuple[int, str]:
        """Append `response` under `key` unless the log already holds the key.

        Returns the latency in ms and raw reply the log holds for `key` now,
        which is what a replay will serve.
        """
        import json

        raw = response.raw_text.encode("utf-8")
        latency_ms = to_ms(response.latency)
        header = json.dumps([*key, latency_ms, len(raw)]).encode("ascii")
        with self._lock:
            if key not in self._records:
                self._append(header + b"\n" + raw)
                self._records[key] = (latency_ms, response.raw_text)
                self._last_key[key.digest] = key
            return self._records[key]

    def _append(self, data: bytes) -> None:
        written = os.write(self._fd, data)
        if written != len(data):
            # Cut the partial record off again, so later appends stay readable.
            os.ftruncate(self._fd, os.lseek(self._fd, 0, os.SEEK_CUR) - written)
            raise OSError(f"short write to {self.path}: {written} of {len(data)} bytes")

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


class ReplayCache:
    """Record/replay wrapper around one backend, keyed by the whole request.

    In `record` mode every request goes to the inner backend and its reply is
    added to the shared `CacheLog`; in `replay` mode the reply comes from the
    log alone. Both modes return the reply the log holds, so when a key was
    recorded before, in this run or an earlier one into the same dir, a
    record run uses that first reply, just as its replay will.
    """

    def __init__(self, inner: Generator, log: CacheLog) -> None:
        self._inner = inner
        self._log = log
        self.model_id = inner.model_id
        # Only `record` reaches the inner backend, the one that may read ahead.
        self.reads_ahead = log.mode == "record" and getattr(inner, "reads_ahead", False)

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        try:
            frames = _frames_hash(request)
        except OSError as exc:
            raise BackendError(f"cannot read a frame for the cache key: {exc}") from exc
        key = CacheKey(
            request.prompt.digest, request.model_id, TEMPERATURE, MAX_OUTPUT_UNITS, frames
        )
        if self._log.mode == "replay":
            latency_ms, raw = self._log.lookup(key)
        else:
            response = self._inner.generate(request)
            try:
                latency_ms, raw = self._log.add(key, response)
            except OSError as exc:
                raise BackendError(f"cannot record to {self._log.path}: {exc}") from exc
        return GeneratorResponse(raw_text=raw, latency=from_ms(latency_ms))
