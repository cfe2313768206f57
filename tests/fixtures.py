"""The bundled catalog in the file format, written from its records.

:func:`dumps` writes any catalog that the format can hold; ``loads``
reads the text back into equal records (tests/test_catalog.py checks
the round trip).  ``BUNDLED_TEXT`` is the catalog that
:mod:`spinr.bundled` builds: a complete example of a --catalog file,
and the text that the tests edit.
"""

from spinr import bundled


def _str(text: str) -> str:
    if '"' in text or text.splitlines() not in ([], [text]):
        raise ValueError(f"the catalog format cannot hold the string {text!r}")
    return f'"{text}"'


def _list(values, write) -> str:
    return "[" + ", ".join(map(write, values)) + "]"


def _coords(pi1_map) -> list[int]:
    """The image of each domain generator, in rotation loops of pi1(SO(r))."""
    return [img.coords[0] if img.coords else 0 for img in pi1_map.images]


def _group(g) -> list[str]:
    pi1, algebra = g.pi1, g.algebra
    free = pi1.free_rank
    if any(pi1.orders[:free]):
        raise ValueError(f"group {g.name}: free generators must be listed first")
    lines = [
        "group {", f"  name: {_str(g.name)}", "  pi1 {", f"    free_rank: {free}",
        f"    torsion: {_list(pi1.orders[free:], str)}",
        f"    generators: {_list(pi1.labels, _str)}", "  }",
        "  algebra {", f"    center_rank: {algebra.center_rank}",
    ]
    for i in algebra.ideals:
        lines += ["    ideal {", f"      kind: {_str(i.kind)}", f"      dim: {i.dim}",
                  f"      min_orth_rep: {i.min_orth_rep_dim}", "    }"]
    return lines + ["  }", f"  connected: {str(g.connected).lower()}",
                    f"  provenance: {_str(g.provenance)}", "}"]


def _family(f) -> list[str]:
    lines = ["repfamily {", f"  name: {_str(f.name)}", f"  domain: {_str(f.domain)}",
             f"  target_r: {f.target_r}"]
    if f.parameterized:
        lines += ["  param {", '    name: "s"',
                  f"    constraint: {_str(str(f.param_constraint))}", "  }"]
    else:
        lines.append(f"  labels: {_list(f.labels, _str)}")
    lines += [f"  pi1_images: {_list(map(str, f.pi1_images), _str)}",
              f"  distinct_classes: {_str(f.distinct_classes)}"]
    if f.extends_to is not None:
        lines.append(f"  extends_to: {_str(f.extends_to)}")
    return lines + [f"  certificate: {_str(f.certificate)}", "}"]


def _space(s) -> list[str]:
    return ["space {", f"  name: {_str(s.name)}", f"  G: {_str(s.G)}",
            f"  H: {_str(s.H)}", f"  n: {s.n}",
            f"  sigma_pi1_images: {_list(_coords(s.sigma_pi1), str)}",
            f"  provenance: {_str(s.provenance)}", "}"]


def _holonomy(h) -> list[str]:
    return ["holonomy {", f"  group: {_str(h.group)}", f"  m: {h.m}",
            f"  h_pi1_images: {_list(_coords(h.h_pi1), str)}",
            f"  provenance: {_str(h.provenance)}", "}"]


def dumps(catalog) -> str:
    """The catalog as file text; ValueError for what the format cannot hold."""
    blocks = [[f"catalog_version: {catalog.version}"]]
    blocks += map(_group, catalog.groups.values())
    blocks += map(_family, catalog.families)
    blocks += map(_space, catalog.spaces.values())
    blocks += map(_holonomy, catalog.holonomies.values())
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"


BUNDLED_TEXT = dumps(bundled.build_catalog())
