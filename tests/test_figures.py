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
