import stablematch


def test_public_names_resolve_once():
    # Every exported name exists (getattr raises if not), and none is
    # listed twice.
    for name in stablematch.__all__:
        getattr(stablematch, name)
    assert len(set(stablematch.__all__)) == len(stablematch.__all__)
