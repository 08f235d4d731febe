package dlbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.immutable.VectorMap
import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import repro.core.constraints.MD
import repro.core.db.Database
import repro.spark.{SimIndex, SimJoin}

/** Benchmark entry point: runs one workload for one seed and prints a report
  * line and, last, the result line. Usage (normally through `run.py`):
  * {{{ dlbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir> }}}
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, out: String)

  /** End-to-end metrics (untraced runs) and per-layer metrics (traced run),
    * with their units.
    */
  val endToEnd: Vector[(String, String)] = Vector(
    "setup_s" -> "s", "prep_s" -> "s", "learn_s" -> "s", "model_s" -> "s", "f1" -> "ratio", "retained_mb" -> "MiB",
  )
  val perLayer: Vector[(String, String)] = Vector(
    "db.collect_s" -> "s", "db.tuples" -> "count",
    "simjoin.build_s" -> "s", "simjoin.entries" -> "count", "simjoin.fanout_mean" -> "count",
    "simjoin.pairs_blocked" -> "count", "simjoin.keep_ratio" -> "ratio", "repair.s" -> "s",
    "prep.cpu_util" -> "ratio",
    "ground.s" -> "s", "ground.body_lits_p50" -> "count", "ground.body_lits_max" -> "count",
    "ground.versions_mean" -> "count", "ground.versions_at_cap" -> "count",
    "learn.loop_s" -> "s", "learn.cpu_util" -> "ratio", "learn.gc_s" -> "s",
    "learn.seed_counts_s" -> "s", "learn.score_s" -> "s", "learn.accept_s" -> "s", "learn.reduce_s" -> "s",
    "learn.other_s" -> "s", "learn.clauses" -> "count", "learn.body_lits" -> "count",
    "expand.versions" -> "count", "expand.ms" -> "ms", "coverage.bottom_counts_ms" -> "ms",
    "coverage.union_multi" -> "count", "coverage.union_reject_ratio" -> "ratio",
    "subsume.calls" -> "count", "subsume.us_p50" -> "us", "subsume.us_p99" -> "us",
    "subsume.cap_rechecked" -> "count", "subsume.cap_flips" -> "count",
    "armg.calls" -> "count", "armg.ms_p50" -> "ms", "armg.ms_p90" -> "ms", "armg.kept_ratio" -> "ratio",
    "self.bench_s" -> "s", "self.dirty_s" -> "s", "self.core_db_s" -> "s", "self.spark_s" -> "s",
    "self.core_learn_s" -> "s", "self.eval_s" -> "s",
    "spark.start_s" -> "s", "trace.overhead_s" -> "s", "trace.spans" -> "count",
  )

  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1", m.getOrElse("out", "."))
  }

  def session(localDir: String): SparkSession =
    SparkSession.builder
      .master(s"local[${Probe.nproc}]")
      .appName("dlbench")
      // the settings of repro.jobs.JobSession
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", Paths.get(localDir, "warehouse").toString)
      .getOrCreate()

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val w = Workloads.byName(o.workload)
    Files.createDirectories(Paths.get(o.out))
    val s0    = System.nanoTime()
    val spark = session(Paths.get(o.out, "spark-local").toAbsolutePath.toString)
    val sparkStartS = (System.nanoTime() - s0) / 1e9
    try {
      val env = environment(spark)
      val (result, report) =
        if (o.trace) traced(spark, w, o, sparkStartS) else untraced(spark, w, o)
      val full = Map("workload" -> w.name, "seed" -> o.seed, "trace" -> o.trace, "environment" -> env) ++ report
      val reportJson = Json.render(full)
      Files.write(Paths.get(o.out, s"report-${w.name}-s${o.seed}-t${if (o.trace) 1 else 0}.json"),
        reportJson.getBytes(StandardCharsets.UTF_8))
      println("DLBENCH_REPORT " + reportJson)
      println("DLBENCH_RESULT " + Json.render(result))
    } finally spark.stop()
  }

  private def metricsJson(values: Map[String, Double], units: Vector[(String, String)]): Map[String, Any] =
    VectorMap.from(units.collect {
      case (n, u) if values.contains(n) => n -> Map("value" -> values(n), "unit" -> u)
    })

  private def result(correct: Boolean, attempted: Int, failed: Int, metrics: Map[String, Any]): Map[String, Any] =
    VectorMap("correct" -> correct, "attempted" -> attempted, "failed" -> failed, "metrics" -> metrics)

  private def passRecord(p: Pass, retained: Double): Map[String, Any] = Map(
    "setup_s" -> p.setupS, "prep_s" -> p.prepS, "learn_s" -> p.learnS, "model_s" -> p.modelS,
    "f1" -> p.metrics.f1, "precision" -> p.metrics.precision, "recall" -> p.metrics.recall,
    "retained_mb" -> retained, "def_hash" -> p.defHash, "examples_hash" -> p.examplesHash,
    "examples" -> Map("train_pos" -> p.trainPos.size, "train_neg" -> p.trainNeg.size,
      "test_pos" -> p.testPos.size, "test_neg" -> p.testNeg.size),
    "problems" -> p.problems,
  )

  // ------------------------------------------------------------ untraced

  /** Repeat passes for the measured interval and report per-metric medians.
    * Every pass is checked; a pass whose definition differs from the first
    * pass's counts as failed too.
    */
  def untraced(spark: SparkSession, w: Workload, o: Opts): (Map[String, Any], Map[String, Any]) = {
    val tr       = new Tracer(false)
    val start    = System.nanoTime()
    val deadline = start + o.seconds * 1000000000L
    val records  = mutable.ArrayBuffer.empty[Map[String, Any]]
    val values   = mutable.ArrayBuffer.empty[Map[String, Double]]
    val errors   = mutable.ArrayBuffer.empty[String]
    var failed   = 0
    var last     = 0L
    var first: Option[(String, Double)] = None
    var stop     = false
    while (!stop && (records.isEmpty || System.nanoTime() + last < deadline)) {
      val t0 = System.nanoTime()
      try {
        val p        = Pass.run(spark, w, o.seed, tr, learnerLog = false)
        val retained = Probe.retainedMb()
        val rec      = passRecord(p, retained)
        val same     = first.forall(_ == ((p.defHash, p.metrics.f1)))
        if (first.isEmpty) first = Some((p.defHash, p.metrics.f1))
        if (p.problems.nonEmpty || !same) failed += 1
        records += rec + ("same_as_first" -> same)
        values += Map("setup_s" -> p.setupS, "prep_s" -> p.prepS, "learn_s" -> p.learnS,
          "model_s" -> p.modelS, "f1" -> p.metrics.f1, "retained_mb" -> retained)
        p.release()
      } catch {
        case NonFatal(e) =>
          failed += 1
          errors += e.toString
          records += Map("error" -> e.toString)
          stop = true
      }
      last = System.nanoTime() - t0
    }
    val med = if (values.isEmpty) Map.empty[String, Double]
      else endToEnd.map { case (n, _) => n -> Stats.median(values.map(_(n)).toSeq) }.toMap
    val attempted = records.size
    val res = result(failed == 0 && values.nonEmpty, attempted, failed, metricsJson(med, endToEnd))
    (res, Map("passes" -> records.toVector, "errors" -> errors.toVector, "spans" -> tr.spans.size,
      "measured_s" -> (System.nanoTime() - start) / 1e9))
  }

  // ------------------------------------------------------------ traced

  /** Three passes with a single set-up each: an untraced warm-up, a traced
    * pass (spans on, learner log captured) and an untraced pass for the
    * tracing overhead; then the layer replays on the traced pass's data.
    */
  def traced(spark: SparkSession, w: Workload, o: Opts, sparkStartS: Double): (Map[String, Any], Map[String, Any]) = {
    def untracedPass() = {
      val p = Pass.run(spark, w, o.seed, new Tracer(false), learnerLog = false, setupRepeats = 1)
      p.release()
      p
    }
    untracedPass()
    val tr = new Tracer(true)
    tr.run = s"${w.name}-s${o.seed}"
    val p  = Pass.run(spark, w, o.seed, tr, learnerLog = true, setupRepeats = 1)
    p.release()
    val base = untracedPass()
    val retained = Probe.retainedMb()
    val values   = mutable.LinkedHashMap.empty[String, Double]
    val absent   = mutable.LinkedHashMap.empty[String, String]

    values("db.collect_s") = Stats.median(tr.seconds(tr.run, "setup", "Database.fromFrames"))
    values("db.tuples")    = p.db.tupleCount.toDouble
    values("simjoin.build_s") = tr.seconds(tr.run, "prep", "SimJoin.buildIndex").sum
    values ++= indexStats(p.learnDb, p.index, p.task.spec.mds)
    values("repair.s") = p.repairNs / 1e9
    if (p.workload.system != SystemKind.DLearnRepaired) absent("repair.s") = "no repair on this workload (0 by definition)"
    values("prep.cpu_util") = Probe.util(p.prepCpuNs, p.prepNs)

    val train    = p.trainPos ++ p.trainNeg
    val bodies   = train.map(_.raw.clause.body.size.toDouble)
    val versions = train.map(_.expansions.size)
    values("ground.s")              = tr.seconds(tr.run, "learn", "Coverage.groundAll").sum
    values("ground.body_lits_p50")  = Stats.median(bodies)
    values("ground.body_lits_max")  = bodies.max
    values("ground.versions_mean")  = versions.sum.toDouble / versions.size
    values("ground.versions_at_cap") = versions.count(_ >= p.params.maxExpansions).toDouble

    values("learn.loop_s")   = p.loopNs / 1e9
    values("learn.cpu_util") = Probe.util(p.loopCpuNs, p.loopNs)
    values("learn.gc_s")     = p.loopGcMs / 1e3
    val phases = learnerPhases(p.learnerLog)
    if (phases.isEmpty) {
      for (n <- Seq("learn.seed_counts_s", "learn.score_s", "learn.accept_s", "learn.reduce_s", "learn.other_s"))
        absent(n) = "the learner printed no [dlearn] timing lines under repro.trace"
    } else {
      values ++= phases
      values("learn.other_s") = p.loopNs / 1e9 - phases.values.sum
    }
    values("learn.clauses")   = p.stats.clauses.toDouble
    values("learn.body_lits") = p.stats.literals.toDouble

    val passRun = tr.run
    tr.run = passRun + "-replays"
    values ++= Replays.run(p, tr)
    tr.run = passRun
    if (values("coverage.union_multi") == 0)
      absent("coverage.union_reject_ratio") = "no multi-version negatives in the sample (0 by definition)"

    val self = tr.selfSeconds(tr.run)
    for (layer <- Seq("bench", "dirty", "core.db", "spark", "core.learn", "eval"))
      values(s"self.${layer.replace('.', '_')}_s") = self.getOrElse(layer, 0.0)
    values("spark.start_s")    = sparkStartS
    values("trace.overhead_s") = p.modelS - base.modelS
    values("trace.spans")      = tr.spans.size.toDouble

    val spans = tr.spans
    val t0    = spans.map(_.startNs).min
    val dump  = spans.map(s => Map("id" -> s.id, "parent" -> s.parent, "name" -> s.name, "layer" -> s.layer,
      "run" -> s.run, "start_ms" -> (s.startNs - t0) / 1e6, "end_ms" -> (s.endNs - t0) / 1e6))
    val spanFile = Paths.get(o.out, s"spans-${w.name}-s${o.seed}.json")
    Files.write(spanFile, Json.render(dump).getBytes(StandardCharsets.UTF_8))

    val ok = p.problems.isEmpty && p.defHash == base.defHash
    val res = result(ok, 1, if (ok) 0 else 1, metricsJson(values.toMap, perLayer))
    (res, Map(
      "pass" -> passRecord(p, retained),
      "untraced_pass" -> passRecord(base, Double.NaN),
      "absent" -> absent,
      "learner_log" -> p.learnerLog,
      "definition" -> p.definition.render,
      "span_file" -> spanFile.toString,
      "self_s" -> self,
    ))
  }

  private val phaseLine = """\[dlearn\] (seed-counts|score|accept-counts|reduce)\b.* ([0-9.]+)s""".r

  /** Sum the learner's own `[dlearn]` phase timings (0.1 s resolution). */
  def learnerPhases(lines: Seq[String]): Map[String, Double] = {
    val names = Map("seed-counts" -> "learn.seed_counts_s", "score" -> "learn.score_s",
      "accept-counts" -> "learn.accept_s", "reduce" -> "learn.reduce_s")
    val parsed = lines.collect { case phaseLine(k, s) => names(k) -> s.toDouble }
    if (parsed.isEmpty) Map.empty
    else names.values.map(n => n -> parsed.filter(_._1 == n).map(_._2).sum).toMap
  }

  /** Top-k_m index sizes and the blocked-pair count behind them, from the
    * database domains the index was built on.
    */
  def indexStats(db: Database, idx: SimIndex, mds: Vector[MD]): Map[String, Double] = {
    var entries = 0L
    var keys    = 0L
    var blocked = 0L
    val kept    = mutable.HashSet.empty[(String, String)]
    for (md <- mds; (a, b) <- md.pairs) {
      val left  = db.domain(a).toVector
      val right = db.domain(b).toVector
      for (v <- left) {
        val ms = idx.matches(a, b, v)
        entries += ms.size
        if (ms.nonEmpty) keys += 1
        ms.foreach(m => kept += ((v, m.value)))
      }
      for (v <- right) {
        val ms = idx.matches(b, a, v)
        entries += ms.size
        if (ms.nonEmpty) keys += 1
        ms.foreach(m => kept += ((m.value, v)))
      }
      val postings = mutable.HashMap.empty[String, mutable.ArrayBuffer[Int]]
      for ((v, i) <- right.zipWithIndex; k <- SimJoin.blockKeys(v))
        postings.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += i
      val seen = new java.util.BitSet(right.size)
      for (v <- left) {
        seen.clear()
        for (k <- SimJoin.blockKeys(v); i <- postings.getOrElse(k, Nil)) seen.set(i)
        blocked += seen.cardinality()
      }
    }
    Map(
      "simjoin.entries"       -> entries.toDouble,
      "simjoin.fanout_mean"   -> (if (keys == 0) 0.0 else entries.toDouble / keys),
      "simjoin.pairs_blocked" -> blocked.toDouble,
      "simjoin.keep_ratio"    -> (if (blocked == 0) 0.0 else kept.size.toDouble / blocked),
    )
  }

  /** What the numbers were measured on. */
  def environment(spark: SparkSession): Map[String, Any] = Map(
    "nproc" -> Probe.nproc,
    "spark_master" -> spark.sparkContext.master,
    "spark_default_parallelism" -> spark.sparkContext.defaultParallelism,
    "spark_version" -> spark.version,
    "driver_heap_max_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
    "jdk" -> s"${sys.props("java.vm.name")} ${sys.props("java.version")}",
    "git_commit" -> sys.props.getOrElse("dlbench.commit", "unknown"),
    "source_sha256" -> sys.props.getOrElse("dlbench.sources", "unknown"),
    "par_pool_threads" -> "16, fixed in repro.core.learn.Par (not changed by the benchmark)",
    "setup_s_includes_spark_start" -> false,
  )
}
