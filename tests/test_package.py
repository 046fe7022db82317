import qmet


def test_all_names_resolve():
    missing = [name for name in qmet.__all__ if not hasattr(qmet, name)]
    assert missing == []
