"""Every parser of an input file raises nothing but ValueError on arbitrary text."""

import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commentary.backends import ScriptedBackend
from commentary.evaluation import load_reference, parse_transcript
from commentary.media import load_manifest
from commentary.prompting import load_demonstrations, load_template
from commentary.subtitles import parse_srt

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
    "ScriptedBackend.from_file": _from_file(ScriptedBackend.from_file, ".tsv"),
    "load_reference-srt": _from_file(lambda path: load_reference(path, "v", 60.0, "en"), ".srt"),
    "load_reference-tsv": _from_file(lambda path: load_reference(path, "v", 60.0, "ja"), ".tsv"),
}


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(max_examples=100, deadline=None)
@given(text=TEXTS)
def test_parser_raises_only_value_error(name, text):
    # A fresh dir per example: hypothesis reruns the body, which a fixture's dir would outlive.
    with tempfile.TemporaryDirectory() as directory, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # parse_srt warns on a non-monotonic index
        try:
            PARSERS[name](text, directory)
        except ValueError:
            pass
