"""Template rendering, demonstration injection, and response parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commentary import (
    BUILTIN_TEMPLATES,
    Demonstration,
    PromptSet,
    Speak,
    Wait,
    parse_response,
    render_decision,
    render_init,
)
from commentary import prompting
from commentary.prompting import (
    DecisionRenderer,
    PromptTemplate,
    load_demonstrations,
    load_template,
    sample_demonstrations,
    serialize_history,
)

from helpers import (
    reference_digest,
    reference_parse_response,
    reference_render_decision,
    synth_store,
)
from commentary import frames_between


def window_of(*seconds, video_id="v1", duration=60.0):
    store = synth_store(video_id=video_id, duration=duration)
    return frames_between(store, float(seconds[0]), float(seconds[-1]) + 1.0, cap=60)


class TestTemplates:
    def test_decision_template_requires_context_slot(self):
        with pytest.raises(ValueError):
            PromptTemplate(id="x", language="en", kind="decision", body="no slot here")

    def test_init_template_rejects_context_slot(self):
        with pytest.raises(ValueError):
            PromptTemplate(id="x", language="en", kind="init", body="bad {context}")

    def test_builtin_sets_are_complete(self):
        assert set(BUILTIN_TEMPLATES) == {"race-en", "race-ja", "fight-ja"}
        for init, decision in BUILTIN_TEMPLATES.values():
            assert init.kind == "init"
            assert decision.kind == "decision"
            assert init.language == decision.language


class TestRenderInit:
    def test_race_en_asks_for_players(self):
        init, _ = BUILTIN_TEMPLATES["race-en"]
        rendered = render_init(init, window_of(0))
        assert "identify the number of players" in rendered.text
        assert len(rendered.attachments) == 1

    def test_fight_ja_contains_wait_fallback(self):
        init, _ = BUILTIN_TEMPLATES["fight-ja"]
        rendered = render_init(init, window_of(0))
        assert "<WAIT> を出力してください" in rendered.text

    def test_rejects_decision_template(self):
        _, decision = BUILTIN_TEMPLATES["race-en"]
        with pytest.raises(ValueError):
            render_init(decision, window_of(0))

    def test_rejects_empty_window(self):
        init, _ = BUILTIN_TEMPLATES["race-en"]
        with pytest.raises(ValueError):
            render_init(init, ())


class TestRenderDecision:
    def test_history_serialized_as_numbered_lines(self):
        _, decision = BUILTIN_TEMPLATES["race-en"]
        rendered = render_decision(decision, ["P1 leads"], [], window_of(4, 5))
        assert "1. P1 leads" in rendered.text
        assert len(rendered.attachments) == 2

    def test_empty_history_renders_none(self):
        _, decision = BUILTIN_TEMPLATES["race-en"]
        rendered = render_decision(decision, [], [], window_of(4, 5))
        assert "Previous generated Commentary: none" in rendered.text

    def test_eight_demos_plus_two_frames_gives_ten_attachments(self):
        _, decision = BUILTIN_TEMPLATES["race-en"]
        demos = [
            Demonstration(frames=(f"file:///demo/{i}.jpg",), utterance_text=f"demo {i}")
            for i in range(8)
        ]
        window = window_of(4, 5)
        rendered = render_decision(decision, [], demos, window)
        assert len(rendered.attachments) == 10
        assert list(rendered.attachments[:8]) == [f"file:///demo/{i}.jpg" for i in range(8)]
        assert rendered.attachments[8:] == window

    def test_demo_texts_are_numbered_in_order(self):
        _, decision = BUILTIN_TEMPLATES["race-en"]
        demos = [
            Demonstration(frames=(f"u{i}",), utterance_text=f"demo text {i}")
            for i in range(3)
        ]
        rendered = render_decision(decision, [], demos, window_of(0))
        assert "1. demo text 0" in rendered.text
        assert "3. demo text 2" in rendered.text

    def test_rejects_init_template(self):
        init, _ = BUILTIN_TEMPLATES["race-en"]
        with pytest.raises(ValueError):
            render_decision(init, [], [], window_of(0))

    def test_stateless_render_shares_role_and_attachments_with_init(self):
        init, decision = BUILTIN_TEMPLATES["race-en"]
        window = window_of(4, 5)
        no_history = render_decision(decision, [], [], window)
        as_init = render_init(init, window)
        assert no_history.attachments == as_init.attachments
        assert no_history.text.startswith(init.role_preamble)

    def test_digest_is_stable_and_input_sensitive(self):
        _, decision = BUILTIN_TEMPLATES["race-en"]
        window = window_of(4, 5)
        a = render_decision(decision, ["P1 leads"], [], window)
        b = render_decision(decision, ["P1 leads"], [], window)
        c = render_decision(decision, ["P2 leads"], [], window)
        assert a.digest == b.digest
        assert a.digest != c.digest


# No lone surrogates: a prompt must encode as UTF-8.
_texts = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12)
_uris = _texts.map(lambda s: f"file:///frames/{s}.jpg")
_windows = st.lists(_uris, min_size=1, max_size=4).map(tuple)
_demos = st.builds(
    lambda uri, text: Demonstration(frames=(uri,), utterance_text=text),
    _uris,
    _texts.filter(str.strip),
)
_decision_templates = st.sampled_from(
    [decision for _, decision in BUILTIN_TEMPLATES.values()]
    + [
        PromptTemplate(id="bare", language="en", kind="decision", body="so far: {context}"),
        PromptTemplate(
            id="two-slots",
            language="en",
            kind="decision",
            body="Said: {context}\nAgain, said: {context}\nGo on.",
            role_preamble="You are a commentator.",
        ),
        PromptTemplate(
            id="slot-first",
            language="en",
            kind="decision",
            body="{context}\nWhat comes next?",
            role_preamble="You are a commentator.",
        ),
        PromptTemplate(
            id="slot-last",
            language="en",
            kind="decision",
            body="Said so far:\n{context}",
            role_preamble="You are a commentator.",
        ),
        PromptTemplate(id="only-slot", language="en", kind="decision", body="{context}"),
    ]
)
# Each step adds a text to the history (or not), then renders with a fresh window.
# "arbitrary" renders a history of its own at each step, often one seen before.
_sessions = st.tuples(
    st.sampled_from(["append", "max_history", "stateless", "arbitrary"]),
    st.integers(min_value=0, max_value=3),
    st.lists(
        st.tuples(
            st.one_of(st.none(), _texts),
            _windows,
            st.lists(st.sampled_from(["a", "b", "c d"]), max_size=3),
        ),
        min_size=1,
        max_size=12,
    ),
)


class TestDecisionRenderer:
    @settings(max_examples=200, deadline=None)
    @given(_decision_templates, st.lists(_demos, max_size=3), _sessions)
    def test_every_render_equals_a_fresh_render(self, template, demos, session):
        mode, max_history, steps = session
        renderer = DecisionRenderer(template, demos)
        history: list[str] = []
        for new_text, window, own_history in steps:
            if new_text is not None:
                history.append(new_text)
            used = {
                "append": history,  # the same list, grown in place, as run_session passes it
                "max_history": history[len(history) - max_history :],
                "stateless": [],
                "arbitrary": own_history,
            }[mode]
            assert renderer.render(used, window) == reference_render_decision(
                template, used, demos, window
            )

    def test_the_tuple_rendered_last_renders_as_a_fresh_render_again(self):
        decision = BUILTIN_TEMPLATES["race-en"][1]
        renderer = DecisionRenderer(decision)
        history = ("red car leads", "blue car passes")
        for window in (window_of(3), window_of(4, 5), window_of(4, 5)):
            assert renderer.render(history, window) == reference_render_decision(
                decision, history, (), window
            )

    def test_a_list_changed_in_place_renders_as_a_fresh_render(self):
        decision = BUILTIN_TEMPLATES["race-en"][1]
        renderer = DecisionRenderer(decision)
        history = ["red car leads", "blue car passes"]
        renderer.render(history, window_of(3))
        history[-1] = "blue car spins"
        assert renderer.render(history, window_of(4)) == reference_render_decision(
            decision, history, (), window_of(4)
        )

    def test_rejects_init_template_and_empty_window(self):
        init, decision = BUILTIN_TEMPLATES["race-en"]
        with pytest.raises(ValueError, match="decision template"):
            DecisionRenderer(init)
        with pytest.raises(ValueError, match="at least one frame"):
            DecisionRenderer(decision).render([], ())


class TestDigestFormat:
    """Digests are replay-cache keys: these literals were taken before the
    attachments were hashed in one update, and must never move."""

    RACE_EN_INIT, RACE_EN_DECISION = BUILTIN_TEMPLATES["race-en"]
    RACE_JA_INIT, RACE_JA_DECISION = BUILTIN_TEMPLATES["race-ja"]
    DEMO = Demonstration(("file:///demo/スタート.jpg",), "赤い車が飛び出した")

    def test_no_attachment_hashes_the_text_alone(self):
        digest = prompting._finish(prompting._text_hash("text"), ())
        assert digest == "982d9e3eb996f559" == reference_digest("text", ())

    def test_init_digests_are_pinned(self):
        one = render_init(self.RACE_EN_INIT, ("file:///frames/v1/0000.jpg",))
        three = render_init(
            self.RACE_JA_INIT, ("file:///frames/レース/0000.jpg", "f/1.jpg", "f/2.jpg")
        )
        assert (one.digest, three.digest) == ("727c3131f79c972a", "b9e6eb58f1401e3f")

    def test_decision_digests_are_pinned(self):
        one = DecisionRenderer(self.RACE_EN_DECISION).render(
            (), ("file:///frames/v1/0005.jpg",)
        )
        three = DecisionRenderer(self.RACE_JA_DECISION).render(
            ("赤い車が先頭",), ("file:///frames/レース/0007.jpg", "f/8.jpg", "f/9.jpg")
        )
        with_demo = DecisionRenderer(self.RACE_JA_DECISION, (self.DEMO,)).render(
            ("赤い車が先頭", "青い車が追う"), ("f/8.jpg", "f/9.jpg")
        )
        assert len(with_demo.attachments) == 3
        assert (one.digest, three.digest, with_demo.digest) == (
            "094817b4739dcf06", "e5e934a581392bf4", "cb8a2c7b720d2318"
        )

    # URIs are read from strict UTF-8 files and never hold NUL, so neither do
    # these; a lone surrogate (category Cs) has no UTF-8 form to hash.
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.text(
                st.characters(blacklist_characters="\0", blacklist_categories=("Cs",)), min_size=1
            ),
            min_size=1,
        )
    )
    def test_init_digest_equals_two_updates_per_uri(self, uris):
        rendered = render_init(self.RACE_JA_INIT, tuple(uris))
        assert rendered.digest == reference_digest(rendered.text, uris)


class TestSerializeHistory:
    def test_empty(self):
        assert serialize_history([]) == "none"

    def test_recent_last(self):
        assert serialize_history(["a", "b"]) == "1. a\n2. b"


class TestParseResponse:
    def test_bare_token(self):
        assert parse_response("<WAIT>") == Wait()

    def test_every_wait_is_one_immutable_record(self):
        shared = parse_response("<WAIT>")
        assert shared == Wait() and hash(shared) == hash(Wait())
        assert parse_response(" wait ") is shared and parse_response("") is shared
        with pytest.raises(AttributeError):
            shared.text = "go"

    def test_case_and_whitespace(self):
        assert parse_response("  wait ") == Wait()

    def test_plain_utterance(self):
        assert parse_response("The blue car overtakes on turn one.") == Speak(
            "The blue car overtakes on turn one."
        )

    def test_wait_embedded_in_content_is_speak(self):
        outcome = parse_response("WAIT, no - the red car crashes!")
        assert isinstance(outcome, Speak)

    def test_empty_is_wait(self):
        assert parse_response("") == Wait()
        assert parse_response("   \n ") == Wait()

    def test_newlines_collapse_to_spaces(self):
        outcome = parse_response("first line\n\nsecond line\nthird")
        assert outcome == Speak("first line second line third")

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(
                    ["wait", "WAIT", "<", ">", "_", "\n", " ", "ｗａｉｔ", "²", "ß", "\r", "\u2028", "\x1c"]
                ),
                st.text(max_size=4),
            ),
            max_size=8,
        ).map("".join)
    )
    def test_equals_the_per_character_check(self, raw):
        assert parse_response(raw) == reference_parse_response(raw)

    def test_letters_and_digits_are_those_of_isalnum_at_every_code_point(self):
        every = "".join(map(chr, range(0x110000)))
        kept = "".join(ch for ch in every if ch.isalnum())
        assert prompting._NOT_ALNUM.sub("", every) == kept


class TestTemplateFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "custom.txt"
        path.write_text(
            "id: custom-dec\nlanguage: en\nkind: decision\n"
            "Say something about {context} now.\n",
            encoding="utf-8",
        )
        template = load_template(path)
        assert template.id == "custom-dec"
        assert template.kind == "decision"
        rendered = render_decision(template, ["hi"], [], window_of(0))
        assert "1. hi" in rendered.text

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("name: x\nlanguage: en\nkind: init\nbody\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_template(path)


class TestDemonstrations:
    def test_load_demonstration_file(self, tmp_path):
        path = tmp_path / "demos.tsv"
        path.write_text(
            "file:///d/0.jpg\tThe cars roar off the line\n"
            "file:///d/1.jpg\tA daring pass into the corner\n",
            encoding="utf-8",
        )
        demos = load_demonstrations(path)
        assert len(demos) == 2
        assert demos[0].frames == ("file:///d/0.jpg",)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "demos.tsv"
        path.write_text("just-a-uri-no-text\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_demonstrations(path)

    def test_sampling_is_seeded(self):
        pool = [
            Demonstration(frames=(f"u{i}",), utterance_text=f"t{i}")
            for i in range(20)
        ]
        a = sample_demonstrations(pool, 8, seed=3)
        b = sample_demonstrations(pool, 8, seed=3)
        c = sample_demonstrations(pool, 8, seed=4)
        assert a == b
        assert len(a) == 8
        assert a != c

    def test_sampling_rejects_oversized_request(self):
        pool = [Demonstration(frames=("file:///demo/0.jpg",), utterance_text="t")]
        with pytest.raises(ValueError):
            sample_demonstrations(pool, 2, seed=0)


class TestPromptSet:
    def test_kind_enforcement(self):
        init, decision = BUILTIN_TEMPLATES["race-en"]
        with pytest.raises(ValueError):
            PromptSet(init=decision, decision=decision)
        with pytest.raises(ValueError):
            PromptSet(init=init, decision=init)
