"""Embeddings of finite doubling metric spaces into products of trees.

The pipeline: build a levelled ball graph over a finite metric space,
generate a colored covering hierarchy, map graph vertices into one tree
per color, relabel tree vertices as sentences over a finite alphabet,
and compress sentences into bounded-valence word trees with a paging
codec.  Every module ships exhaustive checkers for the quantitative
inequalities the construction promises.

The package imports no module eagerly, and each command loads only what
it runs:

- codec users load ``diary``, ``morse_thue`` and ``verify``;
- every ``embed`` command also loads the pipeline and the geometry stack
  (``metric``, ``geometry``, ``approx``, ``coverings``), which is all
  that ``verify approx|covering|diary|morse_thue`` run;
- ``verify stage1`` adds ``trees`` and ``stage1``, and ``run``,
  ``export`` and ``verify stage2|all`` add ``labelling`` as well, each
  when the pipeline first builds the stage that needs it.
"""

__version__ = "0.1.0"
