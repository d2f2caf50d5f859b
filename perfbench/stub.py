"""Loopback chat-completion stub for the remote-realtime workload.

Run as its own process: ``python3 perfbench/stub.py --corpus DIR``. It
binds 127.0.0.1 on a free port, prints ``PORT <n>`` once it is ready, and
serves until terminated or until its parent exits.

One thread serves every connection through a selector, with HTTP/1.1
keep-alive. Each response leaves in a single send on a socket with Nagle
disabled, so no delayed ACK is measured.

Every POST to ``/v1/chat/completions`` is checked:

- each image part is a ``data:image/jpeg;base64,`` URI that decodes to the
  exact bytes of the frame file its header names (the URI is compared with
  the canonical encoding of that file, which is cheaper than decoding it);
- the frames are consecutive seconds of one video;
- they are the frames since the video's previous request, as the realtime
  schedule at step 1 shows them: a session opens with second 0 (shown
  twice, at t = 0 and t = 1), and each later window starts one second after
  the previous window ended.

A request that fails a check gets status 422 and is counted as failed. A
request that passes gets the reply of ``corpus.stub_reply`` for the video
and seconds of its frames, or ``<WAIT>``. ``GET /stats`` returns the
request and failure counts.
"""

from __future__ import annotations

import argparse
import base64
import binascii
import json
import os
import selectors
import socket
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.corpus import Video, parse_frame_header, parse_srt_ms, stub_reply  # noqa: E402

DATA_PREFIX = "data:image/jpeg;base64,"
WAIT = "<WAIT>"
HEAD_CHARS = 64  # base64 characters that cover a frame header


class CheckError(Exception):
    pass


class Stub:
    def __init__(self, corpus: Path) -> None:
        # The canonical data URI of every frame file, keyed by the frame its header names.
        self.uris: dict[tuple[str, int], str] = {}
        for path in sorted((corpus / "frames").glob("*/*.jpg")):
            data = path.read_bytes()
            key = parse_frame_header(data)
            if key is None:
                raise SystemExit(f"stub: {path} has no frame header")
            self.uris[key] = DATA_PREFIX + base64.b64encode(data).decode("ascii")
        self.videos: dict[str, Video] = {}
        for path in sorted((corpus / "refs").glob("*.srt")):
            entries = parse_srt_ms(path.read_text(encoding="utf-8"))
            self.videos[path.stem] = Video(path.stem, 0, tuple(entries))
        # The last second each video's previous request showed.
        self.shown: dict[str, int] = {}
        self.requests = 0
        self.failed = 0
        self.errors: list[str] = []

    def frame_of(self, url: str) -> tuple[str, int]:
        """The frame an attachment holds. Its header is decoded from the first
        base64 characters; the whole URI must then equal the canonical
        encoding of that frame file, so it decodes to exactly the file's bytes."""
        if not url.startswith(DATA_PREFIX):
            raise CheckError(f"attachment is not a JPEG data URI: {url[:40]!r}")
        head = url[len(DATA_PREFIX) : len(DATA_PREFIX) + HEAD_CHARS]
        try:
            key = parse_frame_header(base64.b64decode(head, validate=True))
        except binascii.Error as exc:
            raise CheckError(f"bad base64: {exc}") from None
        if key is None or self.uris.get(key) != url:
            raise CheckError(f"attachment does not match the frame file it names ({key})")
        return key

    def reply(self, body: bytes) -> str:
        request = json.loads(body)
        parts = request["messages"][0]["content"]
        window = [self.frame_of(p["image_url"]["url"]) for p in parts[1:]]
        if not window:
            raise CheckError("no window frames")
        video_id = window[-1][0]
        seconds = [s for _, s in window]
        if any(v != video_id for v, _ in window) or seconds != list(
            range(seconds[0], seconds[0] + len(seconds))
        ):
            raise CheckError(f"window frames are not consecutive seconds of one video: {window}")
        last = self.shown.get(video_id)
        opens = seconds == [0]  # a session shows second 0 at t = 0 and again at t = 1
        follows = last is not None and seconds[0] == last + 1
        if not (opens or follows):
            raise CheckError(f"window {seconds} of {video_id} does not follow second {last}")
        self.shown[video_id] = seconds[-1]
        return stub_reply(self.videos[video_id], seconds) or WAIT

    def handle(self, method: str, path: str, body: bytes) -> tuple[int, bytes]:
        if method == "GET" and path == "/stats":
            stats = {"requests": self.requests, "failed": self.failed, "errors": self.errors[:5]}
            return 200, json.dumps(stats).encode()
        if method != "POST" or path != "/v1/chat/completions":
            return 404, b'{"error": "not found"}'
        self.requests += 1
        try:
            content = self.reply(body)
        except (CheckError, ValueError, LookupError, TypeError) as exc:
            self.failed += 1
            self.errors.append(str(exc))
            return 422, json.dumps({"error": str(exc)}).encode()
        answer = {
            "object": "chat.completion",
            "choices": [{"index": 0, "message": {"role": "assistant", "content": content},
                         "finish_reason": "stop"}],
        }
        return 200, json.dumps(answer, ensure_ascii=False).encode()


REASONS = {200: "OK", 404: "Not Found", 422: "Unprocessable Entity"}


def _next_request(buf: bytearray) -> tuple[str, str, dict[str, str], bytes] | None:
    """Pop one complete request off the buffer, or None if it is not all here yet."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = buf[:end].decode("latin-1").split("\r\n")
    method, path, _ = head[0].split(" ", 2)
    headers = {}
    for line in head[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    if len(buf) < end + 4 + length:
        return None
    body = bytes(buf[end + 4 : end + 4 + length])
    del buf[: end + 4 + length]
    return method, path, headers, body


def serve(stub: Stub, listener: socket.socket, parent: int) -> None:
    sel = selectors.DefaultSelector()
    sel.register(listener, selectors.EVENT_READ)
    buffers: dict[socket.socket, bytearray] = {}
    while os.getppid() == parent:
        for key, _ in sel.select(timeout=1.0):
            if key.fileobj is listener:
                conn, _ = listener.accept()
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sel.register(conn, selectors.EVENT_READ)
                buffers[conn] = bytearray()
                continue
            conn = key.fileobj
            chunk = conn.recv(1 << 20)
            if not chunk:
                sel.unregister(conn)
                conn.close()
                del buffers[conn]
                continue
            buf = buffers[conn]
            buf += chunk
            close = False
            while (request := _next_request(buf)) is not None:
                method, path, headers, body = request
                status, payload = stub.handle(method, path, body)
                close = headers.get("connection", "").lower() == "close"
                head = (
                    f"HTTP/1.1 {status} {REASONS[status]}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
                )
                conn.sendall(head.encode("latin-1") + payload)
                if close:
                    break
            if close:
                sel.unregister(conn)
                conn.close()
                del buffers[conn]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True, type=Path)
    args = parser.parse_args()
    stub = Stub(args.corpus)
    parent = os.getppid()
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        print(f"PORT {listener.getsockname()[1]}", flush=True)
        serve(stub, listener, parent)


if __name__ == "__main__":
    main()
