"""Embeddings of finite doubling metric spaces into products of trees.

The pipeline: build a levelled ball graph over a finite metric space,
generate a colored covering hierarchy, map graph vertices into one tree
per color, relabel tree vertices as sentences over a finite alphabet,
and compress sentences into bounded-valence word trees with a paging
codec.  Every module ships exhaustive checkers for the quantitative
inequalities the construction promises.

The package imports no module eagerly, and each command loads only what
it runs:

- ``import qtrees.cli`` loads ``presets`` and ``reporting`` alone, which
  define the configs, the suite names and ``StageError``;
- codec users, and ``embed verify diary|morse_thue``, load ``verify``
  with ``diary`` and ``morse_thue``, and no geometry module;
- ``embed verify approx|covering`` load the pipeline and the geometry
  stack (``metric``, ``geometry``, ``approx``, ``coverings``) and run the
  suite on the pipeline, without ``verify`` or the codec;
- ``verify stage1`` adds ``trees`` and ``stage1``, and ``run``,
  ``export`` and ``verify stage2`` add ``labelling`` (with ``diary`` and
  ``morse_thue``) as well, each when the pipeline first builds the stage
  that needs it.  ``run`` and ``export`` never load ``verify``;
- ``embed verify all`` loads ``verify``, forks its diary worker (with
  ``pickle``, and no process pool), and only then loads the pipeline and
  runs the other suites beside the worker.

Records are ``typing.NamedTuple`` classes or plain classes, and no
module loads ``dataclasses``, which would cost every start of a command
its import and about a millisecond per class created.
"""

__version__ = "0.1.0"
