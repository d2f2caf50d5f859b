"""Generator backends: remote chat-completion client, deterministic mocks, replay cache."""

from __future__ import annotations

import bisect
import errno
import hashlib
import os
import re
import threading
import time
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Any, Mapping, NamedTuple, Protocol
from urllib.parse import quote, unquote, urlsplit

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
_DIGEST = re.compile(r"[0-9a-f]{16}")  # a prompt digest
_OLD_ENTRY_NAME = re.compile(r"[0-9a-f]{16}\.txt")  # `<digest>.txt` of the first cache format


def _warn(message: str, *args: object) -> None:
    """Log a warning by the `commentary.backends` logger; `logging` loads at the first."""
    import logging

    logging.getLogger(__name__).warning(message, *args)


class BackendError(Exception):
    """A generator failure; its message says what failed."""


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


class GeneratorRequest(Record):
    """One backend query: the rendered prompt, decoded with `TEMPERATURE` and at most
    `MAX_OUTPUT_UNITS` tokens, and the session position that `run_session` fills.

    `read_ahead`, the session's dict of the readable frames its last request
    read, by URI, supplies those this request sends, and gets this request's.
    It is no field: it takes no part in ==, hash or repr.
    """

    _fields = ("prompt", "model_id", "decision_time", "video_id", "index", "prev_time")

    def __init__(
        self,
        prompt: RenderedPrompt,
        model_id: str,
        decision_time: Seconds | None = None,
        video_id: str | None = None,
        index: int | None = None,
        prev_time: Seconds | None = None,
        read_ahead: dict[str, _Frame] | None = None,
    ) -> None:
        if len(prompt.attachments) > ATTACHMENT_LIMIT:
            raise BackendError(
                f"{len(prompt.attachments)} attachments exceed the limit of {ATTACHMENT_LIMIT}"
            )
        self.__dict__.update(
            prompt=prompt, model_id=model_id, decision_time=decision_time, video_id=video_id,
            index=index, prev_time=prev_time, read_ahead=read_ahead,
        )

    @cached_property
    def _frames(self) -> dict[str, _Frame | OSError | None]:
        """Each attachment's frame, taken from `read_ahead` or loaded at first use, then kept
        and, in `read_ahead`, handed on to the session's next request in place of the
        frames it held. A frame that failed to read is not handed on.

        The cache key and the request body both use these frames, so the key
        hashes exactly the bytes that were sent.
        """
        ready = {} if self.read_ahead is None else self.read_ahead
        frames: dict[str, _Frame | OSError | None] = {}
        for uri in self.prompt.attachments:
            if uri not in frames:
                frames[uri] = ready.get(uri) or _load_frame(uri)
        ready.clear()
        ready.update((uri, frame) for uri, frame in frames.items() if isinstance(frame, _Frame))
        return frames


class GeneratorResponse(Record):
    def __init__(self, raw_text: str, latency: Seconds) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.__dict__.update(raw_text=raw_text, latency=latency)


class Generator(Protocol):
    """Anything that can answer one prompt at a time.

    One whose `reads_position` is true answers from the request's session position too,
    so a `ReplayCache` keys by it.
    """

    model_id: str

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        ...


class ScriptedBackend:
    """Deterministic mock: responses keyed by prompt digest or by the request's decision index."""

    model_id = "scripted"
    reads_position = True

    def __init__(
        self, script: Mapping[int | str, str] | None = None, default: str = WAIT_TOKEN
    ) -> None:
        self._script: dict[int | str, str] = dict(script or {})
        self._default = default

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        raw = self._script.get(request.prompt.digest)
        if raw is None:
            raw = self._script.get(request.index, self._default)
        return GeneratorResponse(raw_text=raw, latency=0.0)


def read_script(path: str | Path) -> tuple[dict[int | str, str], str]:
    """The responses and the fallback of a script file of `key<TAB>response` lines.

    Keys are prompt digests, decision indexes, or the word `default` for the
    fallback response. A key of 16 lowercase hex digits, the form of a rendered
    prompt's digest, is a digest even when every digit is decimal; any other
    key that `int()` reads as a non-negative number is an index. A malformed
    file, or a key that no request could match, raises ValueError naming it.
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
        elif _DIGEST.fullmatch(key):
            script[key] = response
        else:
            try:
                index = int(key)
            except ValueError:
                index = -1
            if index < 0:
                raise ValueError(
                    f"{path}:{lineno}: key {key!r} is not a decision index, a prompt digest "
                    "(16 lowercase hex digits) or 'default'"
                )
            script[index] = response
    return script, default


class OracleBackend:
    """Mock that replays each video's reference track as its timing becomes observable.

    At a decision at time t it speaks the earliest reference utterance of the
    request's video whose start lies in the window since the previous
    decision, both times read from the request; otherwise it waits. So in a
    session, whose decision times rise, each utterance is spoken at most once.
    """

    model_id = "oracle"
    reads_position = True
    # Every Wait is this one immutable response.
    _WAIT = GeneratorResponse(raw_text=WAIT_TOKEN, latency=0.0)

    def __init__(self, references: Mapping[str, CommentaryTrack]) -> None:
        # Each video's utterances and their starts, strictly increasing.
        self._references = {
            video_id: (track.utterances, [u.start for u in track.utterances])
            for video_id, track in references.items()
        }

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        t = request.decision_time
        if t is None:
            raise ValueError("OracleBackend requires decision_time on the request")
        utterances, starts = self._references[request.video_id]
        prev = request.prev_time
        # The i-th utterance is the first to start after prev; it is spoken if it starts by t.
        i = 0 if prev is None else bisect.bisect_right(starts, prev)
        if i < bisect.bisect_right(starts, t):
            return GeneratorResponse(utterances[i].text, 0.0)
        return self._WAIT


class HttpReply(Protocol):
    """What the backends read of an HTTP reply; `requests.Response` has it too."""

    status_code: int
    content: bytes


class HttpSession(Protocol):
    """What the backends need of an HTTP session; `requests.Session` has it too.

    `post` sends `data` as the request body as it is, and raises `OSError`
    when no reply arrives.
    """

    def post(
        self, url: str, *, data: bytes, headers: dict[str, str], timeout: float
    ) -> HttpReply:
        ...


def _basic_auth(user: str, password: str) -> str:
    import base64

    return "Basic " + base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")


def _netrc_auth(host: str) -> tuple[str, str] | None:
    """Login and password for `host` from `$NETRC` or `~/.netrc`, if it has them.

    `netrc` (and the `shlex` it loads) is imported only when the file exists.
    A file that cannot be read or parsed gives none, with a warning naming it.
    """
    path = os.environ.get("NETRC") or os.path.join(os.path.expanduser("~"), ".netrc")
    if not os.path.exists(path):
        return None
    import netrc

    try:
        entry = netrc.netrc(path).authenticators(host)
    except (OSError, netrc.NetrcParseError) as exc:
        _warn("netrc credentials not used: %s", exc)
        return None
    if entry is None:
        return None
    login, account, password = entry
    return login or account or "", password or ""


def _readable(sock: Any) -> bool:
    """Whether idle `sock` has bytes or an end of stream to read: that the server closed it."""
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
_NOT_LATIN1 = re.compile(r"[^\x00-\xff]")


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
    """Keep-alive HTTP/1.1 client that POSTs to one URL, with one header set and one
    timeout, built on `socket`.

    Each request leaves in one write of head and body, on a socket with
    Nagle's algorithm off. The head is built once, here; each request
    splices in its body's length. The proxy, CA-bundle and netrc settings
    are read from the environment once, here too. Netrc credentials are
    sent only when `headers` hold no `Authorization`. Idle connections
    wait in a lock-guarded list that the backend's threads share; a
    connection goes back only after its whole reply has been read and the
    server keeps it open, and one the server has closed meanwhile is
    dropped before reuse. Redirects are not followed and no compressed
    reply is asked for. `url` must be an `http://` or `https://` URL with a
    host; a header that would hold a line break or a character outside
    Latin-1 raises `ValueError`.

    `ssl` is imported only for an `https://` URL, and `urllib.request`
    only when the environment names a proxy variable, so a run that sends
    no HTTP, or plain HTTP without a proxy, never loads them. Nor does
    plain HTTP load the IDNA codec, or `netrc` when there is no netrc file.
    """

    def __init__(self, url: str, headers: Mapping[str, str], timeout: float) -> None:
        import socket  # noqa: F401  (loaded with the client, not by the first POST)

        parts = urlsplit(url)
        self._https = parts.scheme == "https"
        self._timeout = timeout
        self._host = _ascii_host(parts.hostname)
        default_port = 443 if self._https else 80
        self._port = parts.port or default_port
        host = f"[{self._host}]" if ":" in self._host else self._host
        self._authority = f"{host}:{self._port}"
        proxy = None
        if any(name.lower().endswith("_proxy") for name in os.environ):
            from urllib.request import getproxies_environment, proxy_bypass_environment

            env = getproxies_environment()
            proxy = env.get(parts.scheme) or env.get("all")
            if proxy and proxy_bypass_environment(f"{parts.hostname}:{self._port}", env):
                proxy = None
        self._verify: str | bool = (
            os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE") or True
        )
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
        # The request head, cut where each body's length goes.
        fields = {
            "Host": host if self._port == default_port else self._authority,
            "Accept-Encoding": "identity",
            "Content-Length": "",
            **headers,
        }
        fields["Content-Length"] = ""  # in its place, empty whatever `headers` say
        if "Authorization" not in headers:
            auth = _netrc_auth(parts.hostname)
            if auth:
                fields["Authorization"] = _basic_auth(*auth)
        if self._proxy and not self._https:
            fields.update(self._proxy_headers)
            target = url
        else:
            target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        # Each character outside RFC 3986's unreserved and reserved sets goes out
        # percent-encoded as UTF-8; a `%` is kept as written, as `requests` keeps it.
        target = quote(target, safe="!#$%&'()*+,/:;=?@[]~")
        head = _request_head(f"POST {target} HTTP/1.1", fields)
        before, _, after = head.partition(b"\r\nContent-Length: \r\n")
        self._before, self._after = before + b"\r\nContent-Length: ", b"\r\n" + after

    def _tls_context(self) -> Any:
        if self._tls is None:
            import ssl

            if self._verify is True:
                self._tls = ssl.create_default_context()
            elif os.path.isdir(self._verify):
                self._tls = ssl.create_default_context(capath=self._verify)
            else:
                self._tls = ssl.create_default_context(cafile=self._verify)
        return self._tls

    def _connection(self) -> _Connection:
        """An idle connection the server has kept open, or a new one."""
        while True:
            with self._lock:
                if not self._idle:
                    break
                conn = self._idle.pop()
            if not _readable(conn.sock):
                return conn
            conn.close()
        import socket

        sock = socket.create_connection(self._proxy or self._address, self._timeout)
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

    def post(self, body: bytes) -> tuple[int, bytes]:
        """POST `body`; the reply's status and body."""
        conn = self._connection()
        try:
            conn.sock.sendall(b"".join((self._before, b"%d" % len(body), self._after, body)))
            status, content, keep = _read_reply(conn.reader)
        except BaseException:
            conn.close()
            raise
        if keep:
            with self._lock:
                self._idle.append(conn)
        else:
            conn.close()
        return status, content

    def close(self) -> None:
        """Close the idle connections."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


def _check_fields(fields: Mapping[str, str]) -> None:
    """`ValueError` naming the first header whose name or value holds a line break or a
    character outside Latin-1; it echoes no part of the value."""
    for name, value in fields.items():
        field = name + value
        if _LINE_BREAK.search(field):
            raise ValueError(f"line break in the {name!r} header")
        if _NOT_LATIN1.search(field):
            raise ValueError(f"character outside Latin-1 in the {name!r} header")


def _request_head(request_line: str, fields: Mapping[str, str]) -> bytes:
    """A request head; `ValueError` if a header would hold a line break or a character
    outside Latin-1."""
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
    that does not exist: FileNotFoundError names the URI. Schemes match in any
    case (RFC 3986).
    """
    prefix = uri[:8].lower()
    if prefix.startswith(("data:", "http://", "https://")):
        return None
    if not prefix.startswith("file:"):
        return uri
    parts = urlsplit(uri)
    path = unquote(parts.path)
    if parts.netloc.lower() not in ("", "localhost") or "\0" in path:
        raise FileNotFoundError(errno.ENOENT, "not a file on this machine", uri)
    return path


def _read_file(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _load_frame(uri: str) -> _Frame | OSError | None:
    """The frame of a local file (plain path or `file:` URI), or the `OSError` reading
    it raised; None for data and `http(s)://` URIs."""
    try:
        path = _local_path(uri)
        return None if path is None else _Frame(_read_file(path))
    except OSError as exc:
        return exc.with_traceback(None)


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
    escape. The frames are the request's, each base64-encoded once per
    session as the session hands them on; one that could not be read
    raises its `OSError`, as `build_chat_payload` does.
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


def configured_model(variable: str, model_id: str | None = None, required: bool = True) -> str:
    """`model_id`, or else the value of the environment `variable`; `ValueError` when
    neither names one and a model is `required`."""
    model_id = model_id or os.environ.get(variable, "")
    if required and not model_id:
        raise ValueError(f"no model configured; set {variable} or pass model_id")
    return model_id


class _Endpoint:
    """A JSON endpoint's settings, its HTTP client and the retry loop of its POSTs.

    `base_url`, `api_key` and `model_id` each come from the subclass's
    environment variable in `_ENV` when not given; the requests go to
    `url`, the base URL and the subclass's `_PATH`. Unless a caller passes
    its own session, the client is an `_HttpSession` for that URL, which
    reads the proxy, CA-bundle and netrc settings once, here. The request
    headers are built here too, and a line break or a character outside
    Latin-1 in one (say, in the API key) raises `ValueError` naming the
    header. The class settings are the chat backend's.
    """

    _ENV: tuple[str, str, str]  # the base URL, API key and model variables
    _ENDPOINT = "endpoint"  # what the missing base URL's error calls it
    _PATH = "/chat/completions"
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
        parts = urlsplit(self.base_url)
        if "@" in parts.netloc:
            # Not sent, yet echoed by every error that names the URL.
            raise ValueError(
                f"the {self._ENDPOINT} URL ({env_base}) must not hold credentials; "
                f"set {env_key} or put them in ~/.netrc"
            )
        self.api_key = api_key if api_key is not None else os.environ.get(env_key, "")
        self.model_id = configured_model(env_model, model_id, self._NEEDS_MODEL)
        self._headers = {"Content-Type": "application/json"}
        if self.api_key:
            self._headers["Authorization"] = f"Bearer {self.api_key}"
        _check_fields(self._headers)  # names the header, never echoes the key
        self.url = self.base_url + self._PATH
        if session is None:
            if parts.scheme not in ("http", "https") or not parts.hostname:
                raise ValueError(
                    f"endpoint must be an http:// or https:// URL, got {self.base_url!r}"
                )
            session = _HttpSession(self.url, self._headers, self._TIMEOUT)
        self._session = session
        self._slots = threading.Semaphore(MAX_CONCURRENCY)

    def _post(self, body: bytes) -> tuple[bytes, float]:
        """POST the JSON `body` to `url`; the body of the 200 reply and its latency in seconds,
        the time of its attempt from send to reply read.

        Rate limits (429), server errors (5xx) and transport failures are retried
        up to `MAX_ATTEMPTS` in all, sleeping `BACKOFF_BASE * 2**(n - 1)` seconds
        before retry n; each retry is logged as a warning, and resends `body` as
        it is. Each attempt holds one of the `MAX_CONCURRENCY` slots. Other
        statuses raise `BackendError` at once.
        """
        url = self.url
        last_error = BackendError("no attempt made")
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
                        status, content = self._session.post(body)
                    else:
                        resp = self._session.post(
                            url, data=body, headers=self._headers, timeout=self._TIMEOUT
                        )
                        status, content = resp.status_code, resp.content
                except OSError as exc:  # raised by `_HttpSession` and `requests` alike
                    last_error = BackendError(f"request to {url} failed: {exc}")
                    continue
                latency = time.monotonic() - started
            if status == 200:
                return content, latency
            if status in (401, 403):
                raise BackendError(f"{url} rejected the credentials ({status})")
            if status == 413:
                raise BackendError(f"{url} rejected the payload as too large (413)")
            if status == 429:
                last_error = BackendError(f"{url} rate limited the request (429)")
            elif status >= 500:
                last_error = BackendError(f"server error {status} from {url}")
            else:
                excerpt = content.decode("utf-8", "replace")[:200]
                detail = f": {excerpt}" if excerpt else ""
                raise BackendError(f"unexpected status {status} from {url}{detail}")
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

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        try:
            body = chat_request_body(request)
        except OSError as exc:
            raise BackendError(f"cannot read a frame for the request: {exc}") from exc
        reply, latency = self._post(body)
        return GeneratorResponse(raw_text=_extract_content(reply), latency=latency)


def _extract_content(body: bytes) -> str:
    """The message text of a chat-completion reply's body."""
    import json

    try:
        data = json.loads(body)
        content = data["choices"][0]["message"]["content"]
    except (ValueError, LookupError, TypeError, RecursionError) as exc:  # RecursionError: deep JSON
        raise BackendError(f"malformed chat-completion response: {exc}") from exc
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
    raise BackendError(f"malformed chat-completion response: {what}")


class CacheKey(NamedTuple):
    """Everything a recorded reply depends on: the whole request, frames by content."""

    digest: str
    model: str
    temperature: float
    max_tokens: int
    frames: str
    # The request's (video_id, index, decision_time, prev_time), for a backend that reads it.
    position: tuple | None = None


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


class ReplayCache:
    """Record/replay wrapper around one backend, keyed by the whole request, and the
    append-only `cache.log` of its cache dir.

    Every reply is the one the log holds for the request. A key it lacks is asked of
    the inner backend in `record` mode, and is a miss in `replay` mode. So no request
    the log holds is sent again, and a record run serves what its replay will. The key
    holds the session position for an inner backend that `reads_position`. A replay
    asks no backend, so in `replay` mode `inner` may be just the model id it answers
    as, or its class.

    The log starts with the line `#commentary-cache 2`. Each record is one JSON array
    line `[digest, model, temperature, max_tokens, frames, latency_ms, byte_len]`, with
    a key's position as an array after `frames`, followed by exactly `byte_len` bytes of
    the raw reply in UTF-8. The whole log is read into an index when the cache is
    opened. In `record` mode each new key is appended with one write on an `O_APPEND`
    descriptor, under the cache's lock; a key already in the log is not appended again,
    so when two threads miss the same key at once, both get the first reply added.
    `replay` never modifies the file; `close` closes it.

    A torn last record (a crash during a write) is truncated with a warning in
    `record` mode and ignored with a warning in `replay` mode. A dir of
    one-file-per-digest entries from the first cache format, or a log without
    the v2 header, raises `ValueError`.
    """

    def __init__(self, inner: Generator | type | str, cache_dir: str | Path, mode: str) -> None:
        if mode not in CACHE_MODES:
            raise ValueError(f"cache mode must be one of {CACHE_MODES}, got {mode!r}")
        self._inner = inner
        self.model_id = inner if isinstance(inner, str) else inner.model_id
        self._reads_position = getattr(inner, "reads_position", False)
        self.mode = mode
        self.path = Path(cache_dir) / CACHE_LOG_NAME
        self._records: dict[CacheKey, tuple[int, str]] = {}  # key -> (latency_ms, raw)
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
                key = CacheKey(*fields[:5], *map(tuple, fields[5:]))  # a position is an array
                # `type(...) is int`: a bool is an int too.
                if not all(type(n) is int and n >= 0 for n in (latency_ms, size)):
                    raise ValueError("bad latency or length")
                if eol + 1 + size > len(data):
                    break
                raw = data[eol + 1 : eol + 1 + size].decode("utf-8")
                self._records.setdefault(key, (latency_ms, raw))
            # TypeError: wrong shape or unhashable field; RecursionError: deep JSON
            except (ValueError, TypeError, RecursionError) as exc:
                raise ValueError(f"{self.path}: corrupt record at byte {pos}: {exc}") from exc
            pos = eol + 1 + size
        return pos

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        try:
            frames = _frames_hash(request)
        except OSError as exc:
            raise BackendError(f"cannot read a frame for the cache key: {exc}") from exc
        position = None
        if self._reads_position:
            position = (request.video_id, request.index, request.decision_time, request.prev_time)
        key = CacheKey(
            request.prompt.digest, request.model_id, TEMPERATURE, MAX_OUTPUT_UNITS, frames, position
        )
        held = self._records.get(key)  # never removed, so no lock is needed
        if held is None:
            held = self._miss(key, request)
        latency_ms, raw = held
        return GeneratorResponse(raw_text=raw, latency=from_ms(latency_ms))

    def _miss(self, key: CacheKey, request: GeneratorRequest) -> tuple[int, str]:
        """The latency in ms and raw reply for a key the log lacked at lookup.

        `record` asks the inner backend and appends its reply unless the log
        holds the key by then, and returns what the log holds; a failed write
        raises `BackendError`. `replay` raises `ReplayMismatchError` naming the
        digest's latest recorded key when it has one, else `ReplayMissError`.
        """
        import json

        if self.mode == "replay":  # the index does not change, so it can be scanned
            for recorded in reversed(self._records):
                if recorded.digest == key.digest:
                    raise ReplayMismatchError(recorded, key)
            raise ReplayMissError(key.digest)
        response = self._inner.generate(request)
        raw = response.raw_text.encode("utf-8")
        latency_ms = to_ms(response.latency)
        fields = key if key.position is not None else key[:-1]
        header = json.dumps([*fields, latency_ms, len(raw)]).encode("ascii")
        with self._lock:
            if key not in self._records:
                try:
                    self._append(header + b"\n" + raw)
                except OSError as exc:
                    raise BackendError(f"cannot record to {self.path}: {exc}") from exc
                self._records[key] = (latency_ms, response.raw_text)
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
