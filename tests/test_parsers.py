"""Every parser of an input file raises nothing but ValueError on arbitrary text,
reads a file the same with or without a leading byte-order mark, and `commentary
generate` exits 1 naming a bad input file."""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commentary.backends import read_script
from commentary.cli import main, read_trace_header
from commentary.evaluation import load_reference, parse_transcript
from commentary.media import load_manifest
from commentary.prompting import load_demonstrations, load_template
from commentary.subtitles import parse_srt

from helpers import MAIN_SETTINGS, write_manifest

# Pieces of the file formats, so that the text often gets past a parser's first line.
TOKENS = [
    "\n", "\t", " ", "\r\n", "﻿", "-->", "#video_id", "duration", "00:00:01,000",
    "00:00:02.5", "0", "1", "-1", "2.5", "nan", "inf", "1e309", "²", "id: t",
    "language: en", "kind: init", "kind: decision", "{context}", "default", "<WAIT>",
]
TEXTS = st.lists(st.one_of(st.sampled_from(TOKENS), st.text(max_size=8)), max_size=40).map(
    "".join
)


def _from_file(load, suffix):
    def run(text, directory):
        path = Path(directory) / f"input{suffix}"
        path.write_text(text, encoding="utf-8")
        return load(path)

    return run


PARSERS = {
    "parse_srt": lambda text, directory: parse_srt(text),
    "parse_transcript": lambda text, directory: parse_transcript(text),
    "load_manifest": _from_file(load_manifest, ".manifest"),
    "load_template": _from_file(load_template, ".txt"),
    "load_demonstrations": _from_file(load_demonstrations, ".tsv"),
    "read_script": _from_file(read_script, ".tsv"),
    "load_reference-srt": _from_file(lambda path: load_reference(path, "v", 60.0, "en"), ".srt"),
    "load_reference-tsv": _from_file(lambda path: load_reference(path, "v", 60.0, "ja"), ".tsv"),
}


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(max_examples=100, deadline=None)
@given(text=TEXTS)
def test_parser_raises_only_value_error(name, text):
    # A fresh dir per example: hypothesis reruns the body, which a fixture's dir would outlive.
    with tempfile.TemporaryDirectory() as directory:
        try:
            PARSERS[name](text, directory)
        except ValueError:
            pass


# Pieces of the template, demonstration and script formats, and bytes that are not UTF-8.
FILE_TOKENS = [
    b"\n", b"\t", b" ", b"\r\n", b"\xff", b"\xc3", "\u00e9".encode(), b"0", b"1", b"2",
    b"default", b"<WAIT>", b"id: t", b"language: en", b"language: ja", b"language: xx",
    b"kind: init", b"kind: decision", b"{context}", b"file:///d/0.jpg", b"red car leads",
]
FILE_BYTES = st.lists(
    st.one_of(st.sampled_from(FILE_TOKENS), st.binary(max_size=6)), max_size=30
).map(b"".join)

INIT_TEMPLATE = "id: i\nlanguage: en\nkind: init\nDescribe the start.\n"
DECISION_TEMPLATE = "id: d\nlanguage: en\nkind: decision\nSo far: {context}\n"


@pytest.mark.parametrize("input_file", ["template", "demos", "script"])
@settings(MAIN_SETTINGS, max_examples=60)
@given(data=FILE_BYTES)
@example(data=b"\xff")
@example(data=b"badline\n")
@example(data=b"id: t\nlanguage: xx\nkind: decision\n{context}\n")
def test_generate_exits_one_naming_a_bad_input_file(input_file, data):
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        templates = root / "templates"
        templates.mkdir()
        (templates / "init.txt").write_text(INIT_TEMPLATE, encoding="utf-8")
        (templates / "decision.txt").write_text(DECISION_TEMPLATE, encoding="utf-8")
        script = root / "script.tsv"
        script.write_text("1\tred car leads\n", encoding="utf-8")
        args = [
            "generate",
            "--manifest", str(write_manifest(root / "v.manifest", "v", 3.0)),
            "--templates", str(templates),
            "--backend", f"scripted:{script}",
            "--out", str(root / "out"),
        ]
        bad = {
            "template": templates / "decision.txt",
            "demos": root / "demos.tsv",
            "script": script,
        }[input_file]
        bad.write_bytes(data)
        # A template that parses may clash with the other one; then the dir is named.
        named = templates if input_file == "template" else bad
        if input_file == "demos":
            args += ["--strategy", "feedback-icl", "--shots", "1", "--demos", str(bad)]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(args)
        if code != 0:
            assert code == 1
            assert err.getvalue().startswith("error: ")
            assert str(named) in err.getvalue()


def _reference(path):
    return load_reference(path, "v", 60.0, "en")


# A valid file of each input format, with the reader that loads it.
VALID_INPUTS = {
    "manifest": (".manifest", "#video_id\tv\tduration\t2\n0\tf0.jpg\n1\tf1.jpg\n", load_manifest),
    "template": (".txt", DECISION_TEMPLATE, load_template),
    "demos": (".tsv", "file:///d/0.jpg\tred car leads\n", load_demonstrations),
    "script": (".tsv", "0\tred car leads\ndefault\t<WAIT>\n", read_script),
    "srt-reference": (".srt", "1\n00:00:01,000 --> 00:00:02,000\nred car leads\n", _reference),
    "transcript-reference": (".tsv", "1.0\tred car leads\n", _reference),
    "trace": (".trace", "#video_id\tv\n#duration\t3.000\n#language\tja\n", read_trace_header),
}


@pytest.mark.parametrize("name", sorted(VALID_INPUTS))
def test_a_leading_byte_order_mark_is_ignored(name, tmp_path):
    suffix, text, read = VALID_INPUTS[name]
    plain, marked = tmp_path / f"plain{suffix}", tmp_path / f"marked{suffix}"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert read(marked) == read(plain)
