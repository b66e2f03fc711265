/* C API smoke test — compiled as plain C on purpose: proves srmac_c.h is
 * consumable without a C++ compiler and that the ABI shim honors its
 * contracts (capacity protocol, thread-local errors, bitwise checkpoint
 * round trip through srmac_session_open). */

#include <limits.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#include "srmac_c.h"

#define CHECK(cond)                                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      fprintf(stderr, "FAIL %s:%d: %s (last error: %s)\n", __FILE__,     \
              __LINE__, #cond, srmac_last_error());                      \
      return 1;                                                          \
    }                                                                    \
  } while (0)

static const char kScenario[] = "eager_sr:e5m2/e6m5:r=9:subON";
static const char kModel[] = "mlp:16,2";

int main(void) {
  char ckpt_path[512];
  const char* tmp = getenv("TMPDIR");
  snprintf(ckpt_path, sizeof(ckpt_path), "%s/srmac_capi_smoke.ckpt",
           tmp ? tmp : "/tmp");

  /* Bad inputs fail with a message, not a crash. */
  CHECK(srmac_session_create("not_a_scenario", kModel) == NULL);
  CHECK(strlen(srmac_last_error()) > 0);
  CHECK(srmac_session_create(kScenario, "mlp:oops") == NULL);
  CHECK(srmac_session_open("/nonexistent/file.ckpt", NULL) == NULL);

  srmac_session* s = srmac_session_create(kScenario, kModel);
  CHECK(s != NULL);
  CHECK(strcmp(srmac_session_scenario(s), kScenario) == 0);
  CHECK(strcmp(srmac_session_model(s), kModel) == 0);

  /* Capacity protocol on the shape query. */
  int rank = srmac_session_input_shape(s, NULL, 0);
  CHECK(rank == 1);
  int dims[8];
  CHECK(srmac_session_input_shape(s, dims, 8) == 1);
  CHECK(dims[0] == 16);
  long in_numel = srmac_session_input_numel(s);
  CHECK(in_numel == 16);

  /* Forward one deterministic sample. */
  float input[16];
  float out_a[32], out_b[32];
  long out_numel, i;
  for (i = 0; i < in_numel; ++i) input[i] = 0.0625f * (float)(i - 8);
  out_numel = srmac_session_forward(s, input, (size_t)in_numel, NULL, 0);
  CHECK(out_numel == 10); /* zoo MLPs classify into 10 classes */
  CHECK(srmac_session_forward(s, input, (size_t)in_numel, out_a, 32) ==
        out_numel);
  /* A wrong-sized input is refused. */
  CHECK(srmac_session_forward(s, input, 7, out_b, 32) == -1);

  /* Checkpoint round trip through a second, file-built session: identical
   * outputs bit for bit. */
  CHECK(srmac_session_save_checkpoint(s, ckpt_path) == 0);
  {
    srmac_session* restored = srmac_session_open(ckpt_path, NULL);
    CHECK(restored != NULL);
    CHECK(strcmp(srmac_session_scenario(restored), kScenario) == 0);
    CHECK(strcmp(srmac_session_model(restored), kModel) == 0);
    CHECK(srmac_session_forward(restored, input, (size_t)in_numel, out_b,
                                32) == out_numel);
    CHECK(memcmp(out_a, out_b, (size_t)out_numel * sizeof(float)) == 0);
    srmac_session_destroy(restored);
  }

  /* Reloading into a live session works; a mismatched architecture is a
   * typed failure. */
  CHECK(srmac_session_load_checkpoint(s, ckpt_path) == 0);
  {
    srmac_session* other = srmac_session_create(kScenario, "mlp:8,1");
    CHECK(other != NULL);
    CHECK(srmac_session_load_checkpoint(other, ckpt_path) == -1);
    CHECK(strlen(srmac_last_error()) > 0);
    srmac_session_destroy(other);
  }

  /* Telemetry counted the forwards. */
  {
    srmac_telemetry t;
    CHECK(srmac_session_telemetry(s, &t) == 0);
    CHECK(t.gemms > 0);
    CHECK(t.macs > 0.0);
  }

  /* Ahead-of-time compilation: same bits through the compiled program,
   * including after a live checkpoint reload (plane rebuild via the
   * parameter-version handshake). */
  CHECK(srmac_session_is_compiled(s) == 0);
  CHECK(srmac_session_compile(NULL, 1) == -1);
  CHECK(srmac_session_compile(s, 0) == -1);
  /* A capacity whose planned buffers would pass INT_MAX elements is a typed
   * failure before anything is allocated, on a model without convs too. */
  CHECK(srmac_session_compile(s, INT_MAX) == -1);
  CHECK(strstr(srmac_last_error(), "max_batch") != NULL);
  CHECK(srmac_session_is_compiled(s) == 0);
  {
    /* A capacity whose wide conv GEMM would run past INT_MAX columns is a
     * typed failure, not an int overflow. */
    srmac_session* conv = srmac_session_create(kScenario, "resnet20:8");
    CHECK(conv != NULL);
    CHECK(srmac_session_compile(conv, INT_MAX) == -1);
    CHECK(strlen(srmac_last_error()) > 0);
    CHECK(strstr(srmac_last_error(), "max_batch") != NULL);
    CHECK(srmac_session_is_compiled(conv) == 0);
    srmac_session_destroy(conv);
  }
  CHECK(srmac_session_compile(s, 1) == 0);
  CHECK(srmac_session_is_compiled(s) == 1);
  CHECK(srmac_session_forward(s, input, (size_t)in_numel, out_b, 32) ==
        out_numel);
  CHECK(memcmp(out_a, out_b, (size_t)out_numel * sizeof(float)) == 0);
  CHECK(srmac_session_load_checkpoint(s, ckpt_path) == 0);
  memset(out_b, 0, sizeof(out_b));
  CHECK(srmac_session_forward(s, input, (size_t)in_numel, out_b, 32) ==
        out_numel);
  CHECK(memcmp(out_a, out_b, (size_t)out_numel * sizeof(float)) == 0);

  /* Telemetry JSON follows the same capacity protocol as the shape query:
   * probe with capacity 0, then fill. The count includes the NUL. */
  {
    char small[4];
    long need = srmac_session_telemetry_json(s, NULL, 0);
    CHECK(need > 2); /* more than "{}" */
    CHECK(srmac_session_telemetry_json(s, small, sizeof(small)) == need);
    char* json = (char*)malloc((size_t)need);
    CHECK(json != NULL);
    CHECK(srmac_session_telemetry_json(s, json, (size_t)need) == need);
    CHECK((long)strlen(json) == need - 1);
    CHECK(json[0] == '{' && json[need - 2] == '}');
    CHECK(strstr(json, "\"gemms\"") != NULL);
    free(json);
  }

  /* Drift before shadowing is enabled is a typed failure. */
  {
    srmac_drift d;
    CHECK(srmac_session_drift(s, &d) == -1);
    CHECK(strlen(srmac_last_error()) > 0);
  }

  /* Shadow A/B: an unparsable shadow scenario is refused; a self-shadow
   * (same scenario) at fraction 1 replays every forward bitwise, so the
   * recorded final-output drift is exactly zero. */
  CHECK(srmac_session_enable_shadow(s, "not_a_scenario", 1.0) == -1);
  CHECK(srmac_session_enable_shadow(s, kScenario, 1.0) == 0);
  CHECK(srmac_session_forward(s, input, (size_t)in_numel, out_b, 32) ==
        out_numel);
  CHECK(srmac_session_forward(s, input, (size_t)in_numel, out_b, 32) ==
        out_numel);
  {
    srmac_drift d;
    CHECK(srmac_session_drift(s, &d) == 0);
    CHECK(d.samples == 2);
    CHECK(d.final_max_abs == 0.0);
    CHECK(d.final_mean_abs == 0.0);
    CHECK(d.p99_maxabs == 0.0);
  }

  /* A genuinely different shadow scenario records nonzero drift, and the
   * primary output stays bitwise what it always was. */
  CHECK(srmac_session_enable_shadow(s, "rn:e5m2/e6m5:r=0:subON", 1.0) == 0);
  memset(out_b, 0, sizeof(out_b));
  CHECK(srmac_session_forward(s, input, (size_t)in_numel, out_b, 32) ==
        out_numel);
  CHECK(memcmp(out_a, out_b, (size_t)out_numel * sizeof(float)) == 0);
  {
    srmac_drift d;
    CHECK(srmac_session_drift(s, &d) == 0);
    CHECK(d.samples == 1);
    CHECK(d.final_max_abs > 0.0);
    /* The JSON snapshot carries the drift pair too. */
    long need = srmac_session_telemetry_json(s, NULL, 0);
    char* json = (char*)malloc((size_t)need);
    CHECK(json != NULL);
    CHECK(srmac_session_telemetry_json(s, json, (size_t)need) == need);
    CHECK(strstr(json, "\"drift\"") != NULL);
    CHECK(strstr(json, "rn:e5m2/e6m5:r=0:subON") != NULL);
    free(json);
  }

  /* Disable: fraction 0 turns shadowing off again. */
  CHECK(srmac_session_enable_shadow(s, NULL, 0.0) == 0);

  srmac_session_destroy(s);
  srmac_session_destroy(NULL); /* no-op */
  remove(ckpt_path);
  printf("capi smoke: ok\n");
  return 0;
}
