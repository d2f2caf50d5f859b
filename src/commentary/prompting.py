"""Prompt templates, history and demonstration injection, and response parsing."""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from random import Random
from typing import Sequence

from .core import WAIT_TOKEN, DecisionOutcome, Record, Speak, Wait, read_utf8

KIND_INIT = "init"
KIND_DECISION = "decision"

CONTEXT_PLACEHOLDER = "{context}"

# Rendered in place of the history block when nothing has been said yet.
EMPTY_HISTORY_MARKER = "none"

# Whatever is not a letter or digit: `\W` is exactly the complement of
# `str.isalnum` plus the underscore.
_NOT_ALNUM = re.compile(r"[\W_]+")

# `parse_response` hands back this one immutable record for every Wait.
_WAIT = Wait()


class PromptTemplate(Record):
    """A prompt template; decision templates carry a {context} history slot."""

    def __init__(
        self, id: str, language: str, kind: str, body: str, role_preamble: str = ""
    ) -> None:
        if kind not in (KIND_INIT, KIND_DECISION):
            raise ValueError(f"template kind must be 'init' or 'decision', got {kind!r}")
        has_context = CONTEXT_PLACEHOLDER in body
        if kind == KIND_DECISION and not has_context:
            raise ValueError(f"decision template {id!r} must contain {CONTEXT_PLACEHOLDER}")
        if kind == KIND_INIT and has_context:
            raise ValueError(f"init template {id!r} must not contain {CONTEXT_PLACEHOLDER}")
        self.__dict__.update(
            id=id, language=language, kind=kind, body=body, role_preamble=role_preamble
        )


class Demonstration(Record):
    """A frame/commentary exemplar prepended to decision prompts: one frame URI and a line."""

    def __init__(self, frame: str, utterance_text: str) -> None:
        if not utterance_text.strip():
            raise ValueError("demonstration utterance text must be non-empty")
        self.__dict__.update(frame=frame, utterance_text=utterance_text)


class RenderedPrompt(Record):
    """Backend payload: text plus image attachments in presentation order."""

    def __init__(self, text: str, attachments: tuple[str, ...], digest: str) -> None:
        self.__dict__.update(text=text, attachments=attachments, digest=digest)


class PromptSet(Record):
    """The init/decision template pair (plus sampled demonstrations) for one run."""

    def __init__(
        self,
        init: PromptTemplate,
        decision: PromptTemplate,
        demonstrations: tuple[Demonstration, ...] = (),
    ) -> None:
        demonstrations = tuple(demonstrations)
        if init.kind != KIND_INIT:
            raise ValueError("PromptSet.init must be an init template")
        if decision.kind != KIND_DECISION:
            raise ValueError("PromptSet.decision must be a decision template")
        self.__dict__.update(init=init, decision=decision, demonstrations=demonstrations)


# A prompt digest is the SHA-256 of the text, then b"\x00" + URI for each
# attachment in order, cut to 16 hex digits. `_finish` adds the attachments,
# all in one update.
def _text_hash(text: str) -> "hashlib._Hash":
    return hashlib.sha256(text.encode("utf-8"))


def _finish(h: "hashlib._Hash", attachments: Sequence[str]) -> str:
    if attachments:
        h.update(("\x00" + "\x00".join(attachments)).encode("utf-8"))
    return h.hexdigest()[:16]


def serialize_history(history: Sequence[str]) -> str:
    """History as numbered lines, oldest first; 'none' when empty."""
    if not history:
        return EMPTY_HISTORY_MARKER
    return "\n".join(f"{i}. {text}" for i, text in enumerate(history, 1))


def _join(role_preamble: str, *blocks: str) -> str:
    parts = [p for p in (role_preamble, *blocks) if p]
    return "\n".join(parts)


def render_init(template: PromptTemplate, window: tuple[str, ...]) -> RenderedPrompt:
    """Render the initialization prompt: role and body only, no history block, with
    the window's frame URIs as its attachments."""
    if template.kind != KIND_INIT:
        raise ValueError(f"render_init requires an init template, got kind {template.kind!r}")
    if not window:
        raise ValueError("window must contain at least one frame")
    text = _join(template.role_preamble, template.body)
    return RenderedPrompt(text, window, _finish(_text_hash(text), window))


class DecisionRenderer:
    """Renders the decision prompts of one session.

    The text is the part of the template before its first {context}, then the
    numbered history, then the rest of the template (any further {context}
    replaced too). The renderer keeps the history lines and a SHA-256 state
    over the text up to their end. A history that extends the last one
    formats and hashes only its new lines; any other change rebuilds both, at
    a cost bounded by the history's length. An unchanged history adds only the
    attachment URIs to a copy of the hash. So no decision formats or hashes
    the whole history again, and every digest equals a fresh render's. The
    tuple last rendered, passed again, is known unchanged without a compare;
    any other history, a list mutated in place included, is compared.
    """

    def __init__(self, template: PromptTemplate, demos: Sequence[Demonstration] = ()) -> None:
        if template.kind != KIND_DECISION:
            raise ValueError(
                f"render_decision requires a decision template, got kind {template.kind!r}"
            )
        demo_block = ""
        if demos:
            lines = ["Example commentary for the attached demonstration frames:"]
            lines.extend(f"{i}. {d.utterance_text}" for i, d in enumerate(demos, 1))
            demo_block = "\n".join(lines)
        head, _, self._tail = template.body.partition(CONTEXT_PLACEHOLDER)
        # `_join` of the preamble, demo block and body: the body is never empty,
        # since the history it holds reads 'none' at least.
        self._head = "".join(p + "\n" for p in (template.role_preamble, demo_block) if p) + head
        self._demo_uris = tuple([demo.frame for demo in demos])
        # Set by the first render, which always rebuilds.
        self._history: tuple[str, ...] | None = None
        self._lines = ""
        self._state = self._hash = _text_hash("")
        self._text = ""

    def render(self, history: Sequence[str], window: tuple[str, ...]) -> RenderedPrompt:
        if not window:
            raise ValueError("window must contain at least one frame")
        key = history if type(history) is tuple else tuple(history)
        last = self._history
        if key is not last and key != last:
            n = len(last) if last else 0
            if n and key[:n] == last:
                new = "".join([f"\n{i}. {text}" for i, text in enumerate(key[n:], n + 1)])
                self._lines += new
                self._state.update(new.encode("utf-8"))
            else:
                self._lines = serialize_history(key)
                self._state = _text_hash(self._head + self._lines)
            tail = self._tail.replace(CONTEXT_PLACEHOLDER, self._lines)
            self._text = self._head + self._lines + tail
            self._hash = self._state.copy()
            self._hash.update(tail.encode("utf-8"))
            self._history = key
        attachments = self._demo_uris + window
        digest = _finish(self._hash.copy(), attachments)
        return RenderedPrompt(self._text, attachments, digest)


def render_decision(
    template: PromptTemplate,
    history: Sequence[str],
    demos: Sequence[Demonstration],
    window: tuple[str, ...],
) -> RenderedPrompt:
    """Render a decision prompt with history and optional demonstrations.

    Attachments are ordered demonstrations first (in demo order), then the
    current window frames ascending; the text numbers the demo commentaries in
    the same order so they pair with the leading attachments.
    """
    return DecisionRenderer(template, demos).render(history, window)


def parse_response(raw: str) -> DecisionOutcome:
    """Classify a raw backend reply as Wait or Speak.

    Wait when the reply, ignoring case, whitespace, punctuation and markup, is
    exactly the wait token (or is empty). Anything with other content-bearing
    characters is Speak, with internal newlines collapsed to single spaces.
    The wait token is language independent. Every Wait is one shared record.
    """
    if raw == WAIT_TOKEN:
        return _WAIT
    stripped = raw.strip()
    if not stripped or _NOT_ALNUM.sub("", stripped).casefold() == "wait":
        return _WAIT
    lines = stripped.splitlines()
    if len(lines) == 1:
        return Speak(text=stripped)
    return Speak(text=" ".join([part.strip() for part in lines if part.strip()]))


def load_template(path: str | Path) -> PromptTemplate:
    """Load a template file: three header lines (id:, language:, kind:) then the body."""
    path = Path(path)
    lines = read_utf8(path).splitlines()
    if len(lines) < 4:
        raise ValueError(f"{path}: template needs 3 header lines and a body")
    fields = {}
    for expected, line in zip(("id", "language", "kind"), lines[:3]):
        key, sep, value = line.partition(":")
        if key.strip() != expected or not sep:
            raise ValueError(f"{path}: expected header line '{expected}: ...', got {line!r}")
        fields[expected] = value.strip()
    body = "\n".join(lines[3:]).strip("\n")
    try:
        return PromptTemplate(
            id=fields["id"], language=fields["language"], kind=fields["kind"], body=body
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_demonstrations(path: str | Path) -> list[Demonstration]:
    """Load demonstrations from manifest-style lines: uri<TAB>utterance_text."""
    path = Path(path)
    demos: list[Demonstration] = []
    for lineno, line in enumerate(read_utf8(path).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t", 1)
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise ValueError(f"{path}:{lineno}: expected 'uri<TAB>utterance_text'")
        uri, text = parts[0].strip(), parts[1].strip()
        if "\0" in uri:
            raise ValueError(f"{path}:{lineno}: NUL character in frame uri")
        demos.append(Demonstration(uri, text))
    return demos


def sample_demonstrations(
    pool: Sequence[Demonstration], shots: int, seed: int
) -> tuple[Demonstration, ...]:
    """Uniformly sample `shots` demonstrations; the seed is the only randomness."""
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if shots > len(pool):
        raise ValueError(f"requested {shots} demonstrations but the pool holds {len(pool)}")
    return tuple(Random(seed).sample(list(pool), shots))


# Built-in template pairs for the bundled domains.

_RACE_EN_INIT = PromptTemplate(
    id="race-en-init",
    language="en",
    kind=KIND_INIT,
    role_preamble="You are a professional commentator for car racing games.",
    body=(
        "You will be provided with a video clip that represents the start of a race. "
        "Your task is to generate one sentence of commentary.\n"
        "1) You should identify the number of players and their names, along with cars.\n"
        "2) Ignore the background information and refrain from describing the scenery.\n"
        "3) Initial information about the game without being too verbose."
    ),
)

_RACE_EN_DECISION = PromptTemplate(
    id="race-en-decision",
    language="en",
    kind=KIND_DECISION,
    role_preamble="You are a professional commentator for car racing games.",
    body=(
        "You are provided with a video clip from an ongoing car racing game and "
        "commentary generated for the game so far.\n"
        "Previous generated Commentary: {context}\n"
        "Your task is to compare the given video with the previously generated commentary.\n"
        "1) Identify if the video has any new development as compared to the already "
        "provided commentary.\n"
        "2) Ignore the background information and refrain from describing the scenery too much.\n"
        "3) If the state of the game as compared to the provided commentary has not changed, "
        "then generate <WAIT>\n"
        "4) If there are new developments in the provided video, then generate 1 - 2 lines of "
        "commentary to describe it."
    ),
)

_RACE_JA_INIT = PromptTemplate(
    id="race-ja-init",
    language="ja",
    kind=KIND_INIT,
    role_preamble="あなたはカーレースのプロの実況者です。",
    body=(
        "これからレース開始時のビデオクリップが提示されます。\n"
        "それに対して1文の日本語実況を生成してください。\n"
        "冗長になりすぎず、レースの初期情報を伝えてください。"
        "人名や車種には言及せず「プレイヤー」や車の色を使って説明してください．"
    ),
)

_RACE_JA_DECISION = PromptTemplate(
    id="race-ja-decision",
    language="ja",
    kind=KIND_DECISION,
    role_preamble="あなたはカーレースのプロの実況者です。",
    body=(
        "以下に示すのは現在進行中のレースのビデオクリップと、これまでに生成された実況です。\n"
        "これまでの実況: {context}\n"
        "以下のルールに従って日本語実況を1〜2文生成してください：\n"
        "1) 新たな展開があるかどうかを特定してください。\n"
        "2) 背景や風景の描写は避けてください\n"
        "3) 変化がある場合は、それを説明する1文の実況を生成してください。\n"
        "4) 人名や車種には言及せず「プレイヤー」や車の色を使って説明してください．"
    ),
)

_FIGHT_JA_INIT = PromptTemplate(
    id="fight-ja-init",
    language="ja",
    kind=KIND_INIT,
    role_preamble="あなたは大乱闘スマッシュブラザーズのプロの実況者です。",
    body=(
        "これから対戦開始時のビデオクリップが提示されます。\n"
        "このシーンを1文で説明する日本語の実況を生成し視聴者を楽しませてください。\n"
        "観客が没入できるよう驚きや感嘆句も含めてエキサイティングな実況となるよう"
        "心がけてください。話すべきことがなければ <WAIT> を出力してください。"
    ),
)

# The bundled fighting decision template mirrors the racing wording; it ships
# as-is from the source prompt set.
_FIGHT_JA_DECISION = PromptTemplate(
    id="fight-ja-decision",
    language="ja",
    kind=KIND_DECISION,
    role_preamble="あなたはカーレースのプロの実況者です。",
    body=(
        "以下に示すのは現在進行中のレースのビデオクリップと、これまでに生成された実況です。\n"
        "これまでの実況: {context}\n"
        "ビデオに新たな展開があるかどうかを比較・分析し、以下のルールに従って"
        "日本語実況を生成してください：\n"
        "1) 新たな展開があるかどうかを特定してください。\n"
        "2) 状況に変化がなければ <WAIT> を出力してください。\n"
        "3) 明確な変化があれば、それを説明する1文の実況を生成してください。\n"
        "4) 人名や車種には言及せず「プレイヤー」や車の色を使って説明してください"
    ),
)

BUILTIN_TEMPLATES: dict[str, tuple[PromptTemplate, PromptTemplate]] = {
    "race-en": (_RACE_EN_INIT, _RACE_EN_DECISION),
    "race-ja": (_RACE_JA_INIT, _RACE_JA_DECISION),
    "fight-ja": (_FIGHT_JA_INIT, _FIGHT_JA_DECISION),
}


def builtin_prompt_set(name: str) -> PromptSet:
    """Look up a built-in template pair by name (race-en, race-ja, fight-ja); it
    holds no demonstrations."""
    try:
        init, decision = BUILTIN_TEMPLATES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_TEMPLATES))
        raise ValueError(f"unknown template set {name!r}; built-ins: {known}") from None
    return PromptSet(init=init, decision=decision)
