"""Every answer spinr gives still hashes to the committed manifest; see
golden_surface.py for what the surface holds and how to rewrite it."""

import json

import pytest

from golden_surface import MANIFEST, cli_manifest, library_manifest


@pytest.fixture(scope="module")
def expected():
    return json.loads(MANIFEST.read_text("utf-8"))


def _changed(expected: dict, actual: dict) -> list[str]:
    return sorted(k for k in expected.keys() | actual.keys()
                  if expected.get(k) != actual.get(k))


def test_cli_answers_match_the_golden_manifest(expected):
    assert _changed(expected["cli"], cli_manifest()) == []


def test_library_answers_match_the_golden_manifest(expected):
    assert _changed(expected["library"], library_manifest()) == []
