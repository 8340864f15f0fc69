"""End-to-end orchestration: short components, guideline tree, then the
retrieve/write/review/refine loop per subsection, and final assembly.

The examiner loop is bounded by max_refine_rounds; a subsection that keeps
failing (or whose verdicts stay unparseable) is accepted with a warning so a
long run never dies on one stubborn node. Aborts persist everything finished
so far into the run directory.

The calls of a run form a three-stage graph: the five component writers and
the planner read only the draft; each section expansion reads the draft and
its section's overview; each node's retrieve/write/review/refine chain reads
its own node, the tree overview, the draft and the reference, never a
sibling's text. So the stages fan out on one thread pool as wide as the
largest max_inflight among the gateways, and the output is the same at any
width.
"""

from __future__ import annotations

import json
import threading
import typing
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path

from .agents import (
    AgentBinding,
    AgentError,
    AgentRuntime,
    COMPONENT_ROLES,
    MalformedVerdictError,
    default_bindings,
)
from .core import (
    DEFAULT_SECTION_ORDER,
    ConfigError,
    CoreError,
    Draft,
    EmptySectionError,
    GuidelineNode,
    PatentDoc,
    PGTree,
    Reference,
    RefinementRound,
    ReviewVerdict,
    RunRecord,
    SectionPlan,
    SubsectionDraft,
    check_section_order,
    draft_to_record,
    dump_json,
    load_json,
    new_run_record,
    patent_to_record,
    patent_to_text,
    render_draft,
)
from .gateway import (BackendConfig, GatewayError, LlmGateway, RequestError, ResponseCache,
                      build_gateway, user_request)
from .prompts import PromptRegistry, default_registry
from .tags import TagError, extract_tag

SCHEMA_VERSION_PIPELINE_CONFIG = "pipeline-config-v1"

EXPANSION_OFF = "off"
EXPANSION_PER_SECTION = "per_section_call"


class PipelineError(Exception):
    pass


class PipelineAborted(PipelineError):
    """An agent hard error stopped the run; partial artifacts were persisted."""

    def __init__(self, cause: Exception, run_dir: Path | None):
        self.cause = cause
        self.run_dir = run_dir
        super().__init__(f"pipeline aborted: {cause}")


@dataclass(frozen=True)
class PipelineConfig:
    max_refine_rounds: int = 3
    pgtree_expansion: str = EXPANSION_PER_SECTION
    section_order: tuple[str, ...] = DEFAULT_SECTION_ORDER
    seed: int = 0

    def __post_init__(self):
        if self.max_refine_rounds < 0:
            raise PipelineError("max_refine_rounds must be >= 0")
        if self.pgtree_expansion not in (EXPANSION_OFF, EXPANSION_PER_SECTION):
            raise PipelineError(f"unknown pgtree_expansion {self.pgtree_expansion!r}")
        check_section_order(self.section_order)

    def to_record(self) -> dict:
        record = asdict(self)
        record["section_order"] = list(self.section_order)
        record["schema_version"] = SCHEMA_VERSION_PIPELINE_CONFIG
        return record

    @staticmethod
    def from_record(record: dict) -> "PipelineConfig":
        """A run config's pipeline block, or a run dir's config.json."""
        if isinstance(record, dict):
            record = {k: v for k, v in record.items() if k != "schema_version"}
        return config_record(PipelineConfig(), record, "pipeline")


def config_record(base, record: dict, where: str, fixed: tuple[str, ...] = ()):
    """base, a config dataclass, with the fields the JSON object record names
    set to its values. Each value must have its field's type (an int passes
    for a float, a list for a tuple, a bool for nothing), and the dataclass
    checks the ranges. Every fault is a ConfigError naming `where` and the key."""
    if not isinstance(record, dict):
        raise ConfigError(f"{where} must be a JSON object, got {record!r}")
    annotations = {f.name: f.type for f in fields(base) if f.name not in fixed}
    if set(record) - set(annotations):
        raise ConfigError(f"{where}: unknown keys {sorted(set(record) - set(annotations))}")
    hints = typing.get_type_hints(type(base))
    values = {}
    for key, value in record.items():
        is_tuple = typing.get_origin(hints[key]) is tuple
        if is_tuple:
            ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        else:
            allowed = typing.get_args(hints[key]) or (hints[key],)
            ok = isinstance(value, allowed + ((int,) if float in allowed else ()))
        if not ok or isinstance(value, bool):
            raise ConfigError(f"{where}.{key}: expected {annotations[key]}, got {value!r}")
        values[key] = tuple(value) if is_tuple else value
    try:
        return replace(base, **values)
    except (AgentError, CoreError, GatewayError, PipelineError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_run_config(config_file: str | None, mock_playbook: str | None = None,
                    backend: str | None = None, seed: int | None = None):
    """A run config file as (gateways, agent bindings, PipelineConfig); a bad
    value is a ConfigError naming its key. mock_playbook replaces the backends
    with one scripted mock, backend names the one used as "default", and seed
    replaces the pipeline seed."""
    config: dict = {}
    if config_file:
        try:
            config = load_json(Path(config_file))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {config_file}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {config_file} must be a JSON object")
    backends, agents = config.get("backends"), config.get("agents", {})
    if mock_playbook:
        backends = {"default": {"kind": "mock", "playbook_path": str(mock_playbook)}}
    if not backends:
        raise ConfigError("no backends configured; pass --config or --mock-playbook")
    if not isinstance(backends, dict) or not isinstance(agents, dict):
        raise ConfigError("backends and agents must be JSON objects")
    cache_dir = config.get("cache_dir")
    if cache_dir is not None and not isinstance(cache_dir, str):
        raise ConfigError(f"cache_dir: expected str or null, got {cache_dir!r}")

    gateways = {}
    for name, record in backends.items():
        backend_cfg = config_record(BackendConfig(name=name), record, f"backends.{name}", ("name",))
        try:
            gateway = build_gateway(backend_cfg)
        except (ConfigError, RequestError, OSError, ValueError) as exc:
            raise ConfigError(f"backends.{name}: {exc}") from exc
        if cache_dir:
            gateway.cache = ResponseCache(Path(cache_dir) / name)
        gateways[name] = gateway
    chosen = backend or ("default" if "default" in gateways else next(iter(gateways)))
    if chosen not in gateways:
        raise ConfigError(f"backend {chosen!r} not present in config")
    gateways["default"] = gateways[chosen]

    bindings = default_bindings()
    for role, record in agents.items():
        if role not in bindings:
            raise ConfigError(f"unknown agent role {role!r}; expected one of {list(bindings)}")
        bindings[role] = config_record(bindings[role], record, f"agents.{role}", ("role",))
    for role, binding in bindings.items():
        gateway = gateways.get(binding.backend)
        if gateway is None:
            raise ConfigError(f"agents.{role}.backend: no backend named {binding.backend!r}")
        limit = gateway.config.max_tokens_limit
        if binding.max_tokens > limit:
            raise ConfigError(f"agents.{role}.max_tokens: {binding.max_tokens} exceeds the "
                              f"max_tokens_limit {limit} of backend {binding.backend!r}")

    pipeline_cfg = PipelineConfig.from_record(config.get("pipeline", {}))
    if seed is not None:
        pipeline_cfg = replace(pipeline_cfg, seed=seed)
    return gateways, bindings, pipeline_cfg


def plan_section(
    index: int,
    overview: str,
    cfg: PipelineConfig,
    expander=None,
    warnings: list[str] | None = None,
) -> SectionPlan:
    """Grow one first-level section into its guideline nodes.

    With expansion off the section becomes a single guideline node. With
    per-section expansion, expander(overview) gives numbered subsection
    guidelines; a section whose expansion fails to parse falls back to a
    single node, with a warning.
    """
    if cfg.pgtree_expansion == EXPANSION_PER_SECTION and expander is not None:
        try:
            nodes = tuple(
                GuidelineNode(section_index=index, subsection_index=j, guideline_text=text)
                for j, text in expander(overview)
            )
            return SectionPlan(section_index=index, section_overview=overview, subsections=nodes)
        except TagError as exc:
            if warnings is not None:
                warnings.append(
                    f"section {index}: expansion failed ({exc}); falling back to one node"
                )
    node = GuidelineNode(section_index=index, subsection_index=1, guideline_text=overview)
    return SectionPlan(section_index=index, section_overview=overview, subsections=(node,))


class _Skipped(Exception):
    """A task that had not started when another task failed."""


class _TaskGraph:
    """The tasks of one run on one thread pool.

    Each task logs its model calls and warnings on its own; settle() merges
    them in submission order, which is the order a sequential run makes them
    in, so the run dir does not depend on how calls interleave. Once a task
    fails, tasks that have not started are skipped. A one-worker pool runs
    tasks in submission order, so at width 1 a failed run stops where a
    sequential run stops.
    """

    def __init__(self, pool: ThreadPoolExecutor, runtime: AgentRuntime):
        self.pool = pool
        self.runtime = runtime
        self.tasks: list[tuple[Future, RunRecord, list[str]]] = []
        self.failed = threading.Event()

    def submit(self, fn) -> Future:
        """Run fn(runtime, warnings) with a runtime that logs into this task's record."""
        record, warnings = new_run_record(), []
        runtime = replace(self.runtime, recorder=record)

        def task():
            if self.failed.is_set():
                raise _Skipped()
            try:
                return fn(runtime, warnings)
            except BaseException:
                self.failed.set()
                raise

        future = self.pool.submit(task)
        self.tasks.append((future, record, warnings))
        return future

    def settle(self, record: RunRecord, warnings: list[str]) -> BaseException | None:
        """Wait for every task, merge its calls and warnings into record and
        warnings in task order, and return the first error in task order."""
        error = None
        for future, task_record, task_warnings in self.tasks:
            exc = future.exception()
            for entry in task_record.entries:
                record.log_call(entry)
            warnings.extend(task_warnings)
            if error is None and exc is not None and not isinstance(exc, _Skipped):
                error = exc
        return error


def _succeeded(future: Future) -> bool:
    return future.exception() is None


class PatentPipeline:
    def __init__(
        self,
        gateways: dict[str, LlmGateway],
        bindings: dict[str, AgentBinding] | None = None,
        registry: PromptRegistry | None = None,
        run_dir: Path | str | None = None,
    ):
        self.gateways = gateways
        self.bindings = bindings or default_bindings()
        self.registry = registry or default_registry()
        self.run_dir = Path(run_dir) if run_dir is not None else None

    def run(self, draft: Draft, cfg: PipelineConfig) -> PatentDoc:
        primary = self.gateways["default"].config
        record = new_run_record(model_id=primary.model_id, seed=cfg.seed)
        runtime = AgentRuntime(gateways=self.gateways, bindings=self.bindings,
                               registry=self.registry)
        warnings: list[str] = []
        tree: PGTree | None = None
        error: BaseException | None = None
        width = max(gateway.max_inflight for gateway in self.gateways.values())
        with ThreadPoolExecutor(max_workers=width) as pool:
            graph = _TaskGraph(pool, runtime)
            written = {role: graph.submit(partial(_write_component, role, draft))
                       for role in COMPONENT_ROLES}
            planned = graph.submit(lambda rt, _: rt.plan_first_level(draft))
            nodes: list[Future] = []
            try:
                sections = [graph.submit(partial(_expand_section, index, overview, draft, cfg))
                            for index, overview in planned.result()]
                tree = PGTree(sections=tuple(f.result() for f in sections))
                reference = Reference(**{r: f.result() for r, f in written.items()}, draft=draft)
                nodes = [graph.submit(partial(self._one_subsection, node, reference, tree, draft,
                                              cfg))
                         for node in tree.nodes()]
            except BaseException as exc:
                graph.failed.set()  # tasks not yet started are skipped
                if not isinstance(exc, Exception):
                    raise  # an interrupt ends the run at once
                error = exc
            # The first task error in task order is the run's error: the main
            # thread may have met a later one, or a skipped task.
            error = graph.settle(record, warnings) or error
        components = {role: f.result() for role, f in written.items() if _succeeded(f)}
        subs = [f.result() for f in nodes if _succeeded(f)]
        try:
            if error is not None:
                raise error
            doc = PatentDoc(**components, description="\n\n".join(s.text for s in subs),
                            section_order=cfg.section_order, generation_meta=record)
        except (AgentError, GatewayError, TagError, EmptySectionError) as exc:
            self._persist(draft, cfg, record, components, tree, subs, warnings, error=exc)
            raise PipelineAborted(exc, self.run_dir) from exc
        self._persist(draft, cfg, record, components, tree, subs, warnings, doc=doc)
        return doc

    def _one_subsection(self, node, reference, tree, draft, cfg, runtime, warnings):
        retrieved = runtime.retrieve(node, reference)
        if not retrieved:
            warnings.append(f"node {node.node_id}: empty retrieval")
        text = runtime.write_subsection(node, retrieved, tree, draft)
        verdict, malformed = self._review(runtime, node, text, draft, warnings)
        history = [RefinementRound(text=text, verdict=verdict)]
        while not malformed and not verdict.passed and len(history) <= cfg.max_refine_rounds:
            revised = runtime.refine(node, text, verdict.advice, tree)
            no_change = revised == text
            if no_change:
                warnings.append(f"node {node.node_id}: refinement round {len(history)} unchanged")
            text = revised
            verdict, malformed = self._review(runtime, node, text, draft, warnings)
            history.append(RefinementRound(text=text, verdict=verdict, no_change=no_change))
        sub = SubsectionDraft(node=node.node_id, history=tuple(history))
        if sub.accepted_with_warning:
            warnings.append(f"node {node.node_id}: accepted with warning after "
                            f"{sub.rounds_used} refinement rounds")
        return sub

    @staticmethod
    def _review(runtime, node, text, draft, warnings):
        """Review once; an unparseable verdict fails only this subsection."""
        try:
            return runtime.review(node, text, draft), False
        except MalformedVerdictError as exc:
            warnings.append(f"node {node.node_id}: {exc}")
            return ReviewVerdict(result="Fail", advice="unparseable verdict after retries"), True

    def _persist(self, draft, cfg, record, components, tree, subs, warnings, doc=None, error=None):
        if self.run_dir is None:
            return
        run_dir = self.run_dir
        run_dir.mkdir(parents=True, exist_ok=True)
        dump_json(cfg.to_record(), run_dir / "config.json")
        dump_json(draft_to_record(draft), run_dir / "draft.json")
        (run_dir / "draft.txt").write_text(render_draft(draft) + "\n", encoding="utf-8")
        with (run_dir / "calls.jsonl").open("w", encoding="utf-8") as fh:
            for entry in record.to_records():
                fh.write(json.dumps(entry) + "\n")
        if components:
            dump_json(components, run_dir / "components.json")
        if tree is not None:
            dump_json(pgtree_to_record(tree), run_dir / "pgtree.json")
        if subs:
            sub_dir = run_dir / "subsections"
            sub_dir.mkdir(exist_ok=True)
            for sub in subs:
                i, j = sub.node
                dump_json(subsection_to_record(sub), sub_dir / f"sec{i:02d}_sub{j:02d}.json")
        dump_json({"warnings": warnings}, run_dir / "warnings.json")
        if doc is not None:
            (run_dir / "patent.txt").write_text(patent_to_text(doc), encoding="utf-8")
            (run_dir / "patent_body.txt").write_text(
                patent_to_text(doc, headers=False), encoding="utf-8"
            )
            dump_json(patent_to_record(doc), run_dir / "patent.json")
        dump_json(
            {"status": "complete" if doc is not None else "partial",
             "error": None if error is None else str(error)},
            run_dir / "status.json",
        )


def _write_component(role, draft, runtime, warnings):
    return runtime.write_component(role, draft)


def _expand_section(index, overview, draft, cfg, runtime, warnings):
    return plan_section(index, overview, cfg,
                        lambda text: runtime.expand_section(draft, text), warnings)


def pgtree_to_record(tree: PGTree) -> dict:
    return {
        "sections": [
            {
                "section_index": plan.section_index,
                "section_overview": plan.section_overview,
                "subsections": [
                    {
                        "section_index": n.section_index,
                        "subsection_index": n.subsection_index,
                        "guideline_text": n.guideline_text,
                    }
                    for n in plan.subsections
                ],
            }
            for plan in tree.sections
        ]
    }


def subsection_to_record(sub: SubsectionDraft) -> dict:
    return {
        "node": list(sub.node),
        "text": sub.text,
        "rounds_used": sub.rounds_used,
        "accepted_with_warning": sub.accepted_with_warning,
        "final_verdict": {"result": sub.final_verdict.result, "advice": sub.final_verdict.advice},
        "history": [
            {
                "text": r.text,
                "result": r.verdict.result,
                "advice": r.verdict.advice,
                "no_change": r.no_change,
            }
            for r in sub.history
        ],
    }


# --- zero-shot baseline ------------------------------------------------------

ZERO_SHOT_TAGS = {
    "title": "Title",
    "abstract": "Abstract",
    "background": "Background",
    "summary": "Summary",
    "claims": "Claims",
    "description": "Full Description",
}


@dataclass(frozen=True)
class ZeroShotResult:
    raw: str
    sections: dict
    missing: tuple[str, ...]

    @property
    def complete(self) -> bool:
        return not self.missing


def parse_zero_shot_output(raw: str) -> ZeroShotResult:
    """Pull whatever sections are present out of a one-shot patent dump."""
    body = raw
    try:
        body = extract_tag(raw, "Patent")
    except TagError:
        pass
    sections: dict[str, str] = {}
    missing: list[str] = []
    for name, tag in ZERO_SHOT_TAGS.items():
        try:
            text = extract_tag(body, tag)
        except TagError:
            missing.append(name)
            continue
        if text:
            sections[name] = text
        else:
            missing.append(name)
    return ZeroShotResult(raw=raw, sections=sections, missing=tuple(missing))


def run_zero_shot(
    gateway: LlmGateway,
    draft: Draft,
    registry: PromptRegistry | None = None,
    recorder: RunRecord | None = None,
    max_tokens: int = 16384,
) -> ZeroShotResult:
    registry = registry or default_registry()
    prompt = registry.render("zero_shot_full", draft=render_draft(draft))
    resp = gateway.complete(
        user_request(
            prompt,
            model_id=gateway.config.model_id,
            max_tokens=max_tokens,
            request_tag="zero_shot",
        ),
        recorder=recorder,
    )
    return parse_zero_shot_output(resp.content)
