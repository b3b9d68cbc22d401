import framepress


def test_every_export_resolves_once():
    assert len(framepress.__all__) == len(set(framepress.__all__))
    missing = [name for name in framepress.__all__ if not hasattr(framepress, name)]
    assert missing == []
