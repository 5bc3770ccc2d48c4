import hexcoloring


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition moved or went away
    # breaks `from hexcoloring import *`
    assert len(set(hexcoloring.__all__)) == len(hexcoloring.__all__)
    missing = [name for name in hexcoloring.__all__ if not hasattr(hexcoloring, name)]
    assert missing == []
    namespace = {}
    exec("from hexcoloring import *", namespace)
    assert set(hexcoloring.__all__) <= set(namespace)
