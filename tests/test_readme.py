"""README's library example runs as written and gives what its comments state."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_example():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    example = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    names = {}
    exec(example, names)
    mg = names["mg"]
    assert mg.marginalize_graph(names["g"], (0, 2)).edge_list == [(0, 2)]
    assert "# [(0, 2)]" in example
    assert names["report"].parametrically_collapsible is False
    assert re.search(r"report\.parametrically_collapsible +# False", example)


def test_key_names_are_public():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    listing = re.search(r"\nKey functions: (.*?)\n\n", text, re.S).group(1)
    names = re.findall(r"`(\w+)`", listing)
    assert "marginalize_hypergraph" in names and "normalized_potential_from_table" in names
    import margraph
    for name in names:
        assert getattr(margraph, name) is not None, name
        assert name in margraph.__all__, name
