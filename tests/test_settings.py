from hypothesis import settings


def test_default_profile_is_derandomized():
    # conftest.py loads it; a test's own @settings inherits the fixed draw
    assert settings.default.derandomize is True
    assert settings.default.database is None
    assert settings(max_examples=150, deadline=None).derandomize is True
