"""Every Hypothesis test of the session runs under the profile conftest
loads: derandomized, with no example database and no deadline, so a
defect fails the same tests on every run."""

from hypothesis import is_hypothesis_test


def repeatable(test):
    s = test._hypothesis_internal_use_settings   # the settings @given runs the test under
    return s.derandomize and s.database is None and s.deadline is None


def test_every_property_is_repeatable(request):
    tests = [item for item in request.session.items if is_hypothesis_test(getattr(item, "obj", None))]
    assert [item.nodeid for item in tests if not repeatable(item.obj)] == []
