import a2l


def test_every_export_resolves_to_a_callable_or_class():
    # a stale name in __all__ must not outlive the function it exported
    assert [name for name in a2l.__all__ if not callable(getattr(a2l, name, None))] == []
