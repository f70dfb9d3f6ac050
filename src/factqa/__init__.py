"""Template-based factoid question answering over an RDF-style triple store.

Offline, the package learns a probabilistic mapping from question
templates to knowledge-base predicate paths out of a QA corpus; online it
answers single-entity factoid questions by probabilistic inference and
handles complex questions by decomposing them into answerable chains.

Each name is imported from its module (``factqa.learn``,
``factqa.pipeline``, ...); the package itself defines only ``__version__``.
"""

__version__ = "0.1.0"
