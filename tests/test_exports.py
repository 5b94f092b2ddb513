import distshift


def test_every_export_resolves_once():
    names = distshift.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(distshift, name), name
