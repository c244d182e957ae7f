import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example():
    # the fenced block under "## Library" is a doctest session; the fences are not part of it
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(), re.M | re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README Library", str(README), 0)
    failed, attempted = doctest.DocTestRunner().run(test)
    assert attempted > 0
    assert failed == 0
