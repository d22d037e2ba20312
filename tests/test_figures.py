import re
from xml.dom import minidom

from socialsim.figures import probability_curves_svg, stacked_share_svg


def _texts(doc: minidom.Document) -> list[str]:
    """The text of each title and text element, as an XML parser reads it."""
    return [node.firstChild.data for tag in ("title", "text") for node in doc.getElementsByTagName(tag)]


def test_share_figure_escapes_title_and_labels():
    svg = stacked_share_svg([("a<b&c", {"read": 1.0}), ('"q"', {"like": 1.0})], title="shares <&> 'all'")
    texts = _texts(minidom.parseString(svg))
    assert texts.count("shares <&> 'all'") == 2  # the file's title and the heading
    assert {"a<b&c", '"q"'} <= set(texts)


def test_curve_figure_escapes_title_label_and_conditions():
    curves = {("lo<w", 'n"&m'): [(0.0, 0.2, 0.1, 0.3), (1.0, 0.4, 0.3, 0.5)]}
    doc = minidom.parseString(probability_curves_svg(curves, title="p < 1 & q", y_label="p(a | <b>)"))
    texts = _texts(doc)
    assert texts.count("p < 1 & q") == 2
    assert {"p(a | <b>)", 'lo<w / n"&m'} <= set(texts)
    for tag in ("polygon", "polyline"):
        (node,) = doc.getElementsByTagName(tag)
        assert (node.getAttribute("data-load"), node.getAttribute("data-norm")) == ("lo<w", 'n"&m')


def test_curve_figure_leaves_out_non_finite_points():
    # Regression: an inestimable allocation model's NaN rows were written as "nan" coordinates,
    # which SVG renderers reject.
    nan = float("nan")
    finite = [(0.0, 0.2, 0.1, 0.3), (0.5, 0.3, 0.2, 0.4), (1.0, 0.4, 0.3, 0.5)]
    gapped = [finite[0], (0.5, nan, nan, nan), finite[2]]
    curves = {("low", "no_norm"): finite, ("medium", "no_norm"): gapped, ("high", "no_norm"): [(x, nan, nan, nan) for x, *_ in finite]}
    svg = probability_curves_svg(curves, title="t", y_label="p")
    assert not re.search(r"\bnan\b", svg, re.IGNORECASE)

    def drawn(svg: str) -> dict:
        doc = minidom.parseString(svg)
        return {(node.getAttribute("data-load"), tag): node.getAttribute("points") for tag in ("polygon", "polyline") for node in doc.getElementsByTagName(tag)}

    # the finite curves as drawn alone; the all-NaN condition draws nothing
    assert drawn(svg) == drawn(probability_curves_svg({("low", "no_norm"): finite, ("medium", "no_norm"): [finite[0], finite[2]]}, title="t", y_label="p"))
