import types

import bagforge


def test_all_is_the_sorted_public_namespace():
    names = bagforge.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    bound = {name for name, value in vars(bagforge).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert set(names) == bound
    star = {}
    exec("from bagforge import *", star)
    assert set(star) - {"__builtins__"} == set(names)
