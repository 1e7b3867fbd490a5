import types

import schrod1d


def test_public_namespace_is_exactly_all():
    # a name imported into the package but left out of __all__, or one
    # kept in __all__ after its object is gone, fails here
    missing = [n for n in schrod1d.__all__ if not hasattr(schrod1d, n)]
    assert missing == []
    public = {n for n, v in vars(schrod1d).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert sorted(public) == sorted(schrod1d.__all__)
