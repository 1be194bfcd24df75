"""The label view of a power's elements, for the tests' label-level twins.

``power_finset`` lists X^0 as the unit's one element ``()``, X^1 as X
itself and X^K, K >= 2, as K-tuples; these two helpers read and write
that view, which no builder in ``finstoch`` uses.
"""


def tuple_of(K, x):
    """View an element of X^K as a K-tuple of labels."""
    if K == 0:
        return ()
    if K == 1:
        return (x,)
    return x


def untuple(K, coords):
    """Inverse of :func:`tuple_of`: pack K coordinates into an X^K element."""
    if K == 0:
        return ()
    if K == 1:
        return coords[0]
    return tuple(coords)
