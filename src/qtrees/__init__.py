"""Embeddings of finite doubling metric spaces into products of trees.

The pipeline: build a levelled ball graph over a finite metric space,
generate a colored covering hierarchy, map graph vertices into one tree
per color, relabel tree vertices as sentences over a finite alphabet,
and compress sentences into bounded-valence word trees with a paging
codec.  Every module ships exhaustive checkers for the quantitative
inequalities the construction promises.  The package imports no module
eagerly: codec users load only ``diary``, ``morse_thue`` and ``verify``.
"""

__version__ = "0.1.0"
