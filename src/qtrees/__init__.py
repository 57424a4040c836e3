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
- every ``embed`` command loads the pipeline and the geometry stack
  (``metric``, ``geometry``, ``approx``, ``coverings``); ``verify``
  commands add ``verify`` with ``diary`` and ``morse_thue``, which is
  all that ``verify approx|covering|diary|morse_thue`` run;
- ``verify stage1`` adds ``trees`` and ``stage1``, and ``run``,
  ``export`` and ``verify stage2|all`` add ``labelling`` (with ``diary``
  and ``morse_thue``) as well, each when the pipeline first builds the
  stage that needs it.  ``run`` and ``export`` never load ``verify``;
  ``verify all`` adds ``pickle`` for its diary worker, which needs no
  process pool.

Records are ``typing.NamedTuple`` classes or plain classes, and no
module loads ``dataclasses``, which would cost every start of a command
its import and about a millisecond per class created.
"""

__version__ = "0.1.0"
