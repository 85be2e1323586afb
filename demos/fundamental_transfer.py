"""Collapse a hyperring to its class ring and probe closedness transfer."""

from hyperring_lab import (
    fundamental_ring,
    gamma_star_classes,
    ideal_in_fundamental,
    make_zx_mod,
    mask_of,
    members,
)
from hyperring_lab.bitsets import least


def show_collapse(ring):
    """Print the class partition and the resulting single-valued ring tables."""
    print("instance %s" % ring.name)
    classes = gamma_star_classes(ring)
    print("  classes: %s" % [members(c) for c in classes])
    quot, _ = fundamental_ring(ring)
    print("  class ring order %d" % quot.order)
    print("  add: %s" % [list(r) for r in quot.add])
    print("  mul: %s" % [[least(c) for c in r] for r in quot.mul])


def probe_transfer(ring, ideal_members):
    """Compare (s,n)-closedness before and after the collapse."""
    q = mask_of(ideal_members)
    tr = ideal_in_fundamental(ring, q, smax=4, nmax=4)
    if tr.skipped:
        print("  Q=%s skipped: %s" % (ideal_members, tr.note))
        return
    print("  Q=%s image=%s" % (ideal_members, members(tr.image)))
    for s, n, hyper, ringside in tr.pairs:
        tag = "" if hyper == ringside else "   <-- transfer breaks here"
        print("    (s,n)=(%d,%d) hyper=%-5s ring=%-5s%s" % (s, n, hyper, ringside, tag))
        if tag:
            break


def main():
    show_collapse(make_zx_mod(4, [2]))
    show_collapse(make_zx_mod(4, [1, 3]))
    print("transfer on zx(4;2):")
    probe_transfer(make_zx_mod(4, [2]), [0])
    print("transfer on zx(4;1,3):")
    probe_transfer(make_zx_mod(4, [1, 3]), [0])


if __name__ == "__main__":
    main()
