import types

import congames


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(congames).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(congames.__all__) == public
    assert len(congames.__all__) == len(public) == 46
