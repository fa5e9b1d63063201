"""Shared test fixtures and hypothesis settings."""

import random

import pytest
from hypothesis import settings

# The properties are about answers, not speed: no per-example deadline, so
# a loaded machine cannot fail one through timing alone.
settings.register_profile("tweetpipe", deadline=None)
settings.load_profile("tweetpipe")


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
