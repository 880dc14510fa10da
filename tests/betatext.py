"""Parser for the text rendering of a beta form, for round-trip tests.

parse_beta_text reads what cli.render_beta_form writes, in both the
unicode and the ascii notation, so tests can check that the rendering
loses nothing.
"""

import re

from gwfloor.gwring import BetaForm

_TERM_RE = re.compile(
    r"^(?P<coeff>-?\d*)\s*(?P<kind>h|(?:β|b)\^\{?\((?P<level>\d+)\)\}?|(?:⟨|<)1(?:⟩|>))$")


def parse_beta_text(text: str, s: int) -> BetaForm:
    """Inverse of render_beta_form (both unicode and ascii variants)."""
    h_coeff, one_coeff = 0, 0
    betas = [0] * s
    if text.strip() == "0":
        return BetaForm(0, tuple(betas), 0)
    for raw in text.split("+"):
        m = _TERM_RE.match(raw.strip())
        if not m:
            raise ValueError(f"cannot parse term {raw.strip()!r}")
        coeff = int(m.group("coeff")) if m.group("coeff") not in ("", "-") \
            else (-1 if m.group("coeff") == "-" else 1)
        kind = m.group("kind")
        if kind == "h":
            h_coeff += coeff
        elif m.group("level"):
            betas[int(m.group("level")) - 1] += coeff
        else:
            one_coeff += coeff
    return BetaForm(h_coeff, tuple(betas), one_coeff)
