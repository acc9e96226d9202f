// The C allocation ABI driven by one seeded script: `tests/abi.rs` runs it
// on glibc's allocator and under `libdiehard.so`, and requires the same
// transcript from both.
//
//   driver script SEED   every export at its edges, a seeded mix, a fork
//                        whose child carries on, two threads
//   driver long SEED     110 000 large pairs beside 1 000 live blocks
//   driver diehard       ops whose answers are DieHard's own (§4.3, §4.4,
//                        the large table's bound); libdiehard.so only
//
// Each mode has 10 s to finish, or SIGALRM ends it.
//
// A transcript line holds only what does not depend on the allocator: null
// or not, errno (or posix_memalign's code) on failure, whether the
// alignment was met, whether the usable size covers the request, whether
// the pointer is distinct from every live one, a checksum of the bytes that
// must survive, among them the zeros a calloc must read. Every live object
// holds a seeded pattern over its request, and its checksum is printed
// when it is freed, so an object that another overlapped or a realloc
// failed to copy shows as a changed line.
#define _GNU_SOURCE
#include <errno.h>
#include <malloc.h>
#include <pthread.h>
#include <stdarg.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#define LIVE 1100
#define OUT (1 << 20)
#define MB ((size_t)1 << 20)

// One script: its live objects and their requests, its random stream, and
// where its lines go (stdout, or a buffer while it runs on a thread).
typedef struct {
    char *p[LIVE];
    size_t n[LIVE];
    int live;
    uint64_t rng, tag;
    const char *who;
    FILE *out;
} Script;

static size_t sizes[64];
static int nsizes;
static char text[301];

static void emit(Script *s, const char *fmt, ...) {
    va_list ap;
    va_start(ap, fmt);
    fputs(s->who, s->out);
    vfprintf(s->out, fmt, ap);
    va_end(ap);
}

static uint64_t next(Script *s) {
    s->rng ^= s->rng << 13;
    s->rng ^= s->rng >> 7;
    s->rng ^= s->rng << 17;
    return s->rng;
}

static uint32_t sum(const char *p, size_t n) {
    uint32_t h = 2166136261u;
    for (size_t i = 0; i < n; i++)
        h = (h ^ (unsigned char)p[i]) * 16777619u;
    return h;
}

static void fill(Script *s, char *p, size_t from, size_t to) {
    s->tag++;
    for (size_t i = from; i < to; i++)
        p[i] = (char)(s->tag * 131 + i * 7 + (i >> 9) + 1);
}

static int distinct(Script *s, const char *p, int except) {
    for (int i = 0; i < s->live; i++)
        if (i != except && s->p[i] == p)
            return 0;
    return 1;
}

static size_t pow2ceil(size_t a) {
    size_t r = 1;
    while (r < a && r << 1)
        r <<= 1;
    return r;
}

// The facts of a fresh block answering `n` bytes at alignment `a`. `keep`
// says it must hold something already, zeros (calloc) or a string (a
// dup), whose checksum is printed. Then it takes the pattern and joins the
// set, which no script fills.
static void fresh(Script *s, const char *op, size_t n, size_t a, char *p, int keep) {
    int e = errno;
    if (!p) {
        emit(s, "%s %zu @%zu: null errno=%d\n", op, n, a, e);
        return;
    }
    emit(s, "%s %zu @%zu: align=%d usable=%d distinct=%d held=%08x\n", op, n, a,
         (uintptr_t)p % pow2ceil(a) == 0, malloc_usable_size(p) >= n, distinct(s, p, -1),
         keep ? sum(p, n) : 0);
    fill(s, p, 0, n);
    s->p[s->live] = p;
    s->n[s->live++] = n;
}

// `call`, with errno cleared first, answering `n` bytes at alignment `a`.
#define TRY(s, op, n, a, call, keep) fresh(s, op, n, a, (errno = 0, (char *)(call)), keep)

static void drop(Script *s, int k) {
    emit(s, "free %zu: sum=%08x\n", s->n[k], sum(s->p[k], s->n[k]));
    free(s->p[k]);
    s->live--;
    s->p[k] = s->p[s->live];
    s->n[k] = s->n[s->live];
}

// realloc, or reallocarray of `count` × `size`, of live object k: the
// bytes both sizes cover must survive a move, and all of them a failure.
static void resize(Script *s, int k, size_t count, size_t size, int array) {
    char *old = s->p[k];
    size_t was = s->n[k], n = count * size;
    int over = size && n / size != count;
    errno = 0;
    char *p = array ? reallocarray(old, count, size) : realloc(old, n);
    int e = errno;
    if (!p && !over && n == 0) {
        emit(s, "realloc %zu -> 0: null\n", was);
        s->p[k] = s->p[--s->live];
        s->n[k] = s->n[s->live];
    } else if (!p) {
        emit(s, "realloc %zu -> %zu x %zu: null errno=%d kept=%08x\n", was, count, size, e,
             sum(old, was));
    } else {
        emit(s, "realloc %zu -> %zu: align=%d usable=%d distinct=%d sum=%08x\n", was, n,
             (uintptr_t)p % 16 == 0, malloc_usable_size(p) >= n, distinct(s, p, k),
             sum(p, was < n ? was : n));
        if (n > was)
            fill(s, p, was, n);
        s->p[k] = p;
        s->n[k] = n;
    }
}

static void memaligned(Script *s, size_t a, size_t n) {
    void *p = NULL;
    int rc = posix_memalign(&p, a, n);
    if (rc)
        emit(s, "posix_memalign %zu @%zu: %d\n", n, a, rc);
    else
        fresh(s, "posix_memalign", n, a, p, 0);
}

// Every export at its edges; everything it made is freed at the end.
static void edges(Script *s) {
    for (int i = 0; i < nsizes; i++) {
        size_t n = sizes[i];
        TRY(s, "malloc", n, 16, malloc(n), 0);
        TRY(s, "calloc", n, 16, calloc(1, n), 1);
        TRY(s, "realloc(NULL)", n, 16, realloc(NULL, n), 0);
        if (n <= 20000) { // a calloc of the size whose slot was just freed
            drop(s, s->live - 1);
            TRY(s, "calloc", n, 16, calloc(n, 1), 1);
        }
    }
    TRY(s, "calloc", SIZE_MAX / 8, 16, calloc(SIZE_MAX / 8, 16), 1);
    TRY(s, "calloc", (size_t)1 << 32, 16, calloc((size_t)1 << 32, (size_t)1 << 32), 1);
    TRY(s, "reallocarray", SIZE_MAX / 2, 16, reallocarray(NULL, SIZE_MAX / 2, 4), 0);
    TRY(s, "reallocarray", 100, 16, reallocarray(NULL, 25, 4), 0);
    resize(s, s->live - 1, (size_t)1 << 33, (size_t)1 << 33, 1);
    for (size_t a = 0; a <= MB; a = a == 0 ? 3 : a == 3 ? 4 : a * 2) {
        for (size_t n = 100; n <= 20000; n += 19900) {
            memaligned(s, a, n);
            TRY(s, "memalign", n, a, memalign(a, n), 0);
            if (a > 3) // aligned_alloc(0 | 3) differs: the diehard mode has it
                TRY(s, "aligned_alloc", n, a, aligned_alloc(a, n), 0);
        }
    }
    TRY(s, "memalign", 64, SIZE_MAX, memalign(((size_t)1 << 63) + 1, 64), 0);
    TRY(s, "memalign", 64, (size_t)1 << 63, memalign((size_t)1 << 63, 64), 0);
    memaligned(s, 16, SIZE_MAX);
    size_t page = (size_t)sysconf(_SC_PAGESIZE), odd[] = {0, 100, 4096, 4097, SIZE_MAX - 100};
    for (int i = 0; i < 5; i++) {
        TRY(s, "valloc", odd[i], page, valloc(odd[i]), 0);
        TRY(s, "pvalloc", odd[i], page, pvalloc(odd[i]), 0);
    }
    // Each kind of block grows and shrinks: its bytes move with it.
    for (int k = s->live - 8; k < s->live; k++) {
        resize(s, k, 100000, 1, 0);
        resize(s, k, 10, 1, 0);
        resize(s, k, 5000, 1, 0);
        resize(s, k, SIZE_MAX, 1, 0);
    }
    resize(s, s->live - 1, 0, 1, 0);
    errno = 0;
    free(NULL);
    emit(s, "free(NULL): errno=%d usable=%zu\n", errno, malloc_usable_size(NULL));
    // The C copies into a heap object and into a stack buffer, each within
    // its bounds, so C and §4.4 agree byte for byte.
    char buf[16];
    TRY(s, "malloc", 64, 16, malloc(64), 0);
    char *d = s->p[s->live - 1];
    emit(s, "strcpy heap: %d sum=%08x\n", strcpy(d, "hello") == d, sum(d, 64));
    emit(s, "strncpy heap: %d sum=%08x\n", strncpy(d, "ab", 9) == d, sum(d, 64));
    memset(buf, 0x55, sizeof buf);
    emit(s, "strcpy stack: %d sum=%08x\n", strcpy(buf, "hello") == buf, sum(buf, 16));
    emit(s, "strncpy stack: %d sum=%08x\n", strncpy(buf, "ab", 8) == buf, sum(buf, 16));
    emit(s, "strncpy stack: %d sum=%08x\n", strncpy(buf, text, 12) == buf, sum(buf, 16));
    TRY(s, "strdup", 301, 16, strdup(text), 1);
    TRY(s, "strdup", 1, 16, strdup(""), 1);
    TRY(s, "strndup", 4, 16, strndup(text, 3), 1);
    TRY(s, "strndup", 301, 16, strndup(text, MB), 1);
    TRY(s, "strndup", 9, 16, strndup(buf, 8), 1); // buf holds no NUL in its first 12
    while (s->live)
        drop(s, s->live - 1);
}

// One op of the seeded mix: sizes from the edges, small, or large.
static void step(Script *s) {
    uint64_t r = next(s), q = next(s);
    int k = s->live ? (int)((r >> 32) % s->live) : -1;
    size_t n = q % 8 == 0 ? sizes[(q >> 8) % nsizes]
               : q % 8 < 3 ? 16385 + (q >> 8) % 60000
                           : (q >> 8) % 600;
    size_t a = (size_t)1 << ((q >> 40) % 21);
    switch (s->live > 100 ? 0 : r % 14) {
    case 0: case 1: case 2: if (k >= 0) drop(s, k); break;
    case 3: if (k >= 0) resize(s, k, n, 1, 0); break;
    case 4: if (k >= 0) resize(s, k, n / 4, 4, 1); break;
    case 5: TRY(s, "malloc", n, 16, malloc(n), 0); break;
    case 6: TRY(s, "calloc", n, 16, calloc(1, n), 1); break;
    case 7: memaligned(s, a, n); break;
    case 8: TRY(s, "aligned_alloc", n, a, aligned_alloc(a, n), 0); break;
    case 9: TRY(s, "memalign", n, a, memalign(a, n), 0); break;
    case 10: TRY(s, "valloc", n, 4096, valloc(n), 0); break;
    case 11: TRY(s, "pvalloc", n, 4096, pvalloc(n), 0); break;
    case 12: TRY(s, "strndup", n % 301 + 1, 16, strndup(text, n % 301), 1); break;
    default: TRY(s, "realloc(NULL)", n, 16, realloc(NULL, n), 0);
    }
}

// A fork whose child carries on with the script, then exits; the parent
// waits for it, so the child's lines come first, then carries on itself.
static void forked(Script *s, int steps) {
    fflush(stdout);
    pid_t pid = fork();
    if (pid == 0) {
        alarm(10); // a child inherits no alarm
        s->who = "child: ";
        for (int i = 0; i < steps; i++)
            step(s);
        while (s->live)
            drop(s, s->live - 1);
        fflush(stdout);
        _exit(0);
    }
    int status = -1;
    waitpid(pid, &status, 0);
    printf("fork: child status %d\n", status);
}

static Script sub[2];
static char outs[2][OUT];

static void *run(void *arg) {
    for (int i = 0; i < 600; i++)
        step(arg);
    return NULL;
}

// Two threads on sub-scripts of their own at once; their lines are
// printed after the join, and what they left live joins the main script,
// whose frees and reallocs then come from another thread.
static void threads(Script *s) {
    pthread_t t[2];
    for (int i = 0; i < 2; i++) {
        sub[i] = (Script){.rng = s->rng + i + 1, .who = i ? "thread 1: " : "thread 0: "};
        sub[i].out = fmemopen(outs[i], OUT, "w");
        pthread_create(&t[i], NULL, run, &sub[i]);
    }
    for (int i = 0; i < 2; i++) {
        pthread_join(t[i], NULL);
        fclose(sub[i].out);
        fputs(outs[i], stdout);
        for (int k = 0; k < sub[i].live && s->live < LIVE; k++) {
            s->p[s->live] = sub[i].p[k];
            s->n[s->live++] = sub[i].n[k];
        }
    }
}

// 110 000 large pairs while 1 000 blocks of mixed sizes stay live, seven
// in eight of them large (16 KiB to 4 MiB, only their ends touched), so
// that the kernel keeps handing out new addresses rather than the last
// ones freed: under such a host the large-object table once filled with
// tombstones and spun for ever at the next insert.
static void long_mode(Script *s) {
    size_t large = 0;
    uint32_t h = 0;
    while (large < 110000) {
        int k = (int)(next(s) % 1000);
        uint64_t r = next(s);
        size_t n = r % 8 ? 16385 + (r >> 8) % (4 * MB) : 1 + (r >> 8) % 2000;
        if (s->p[k]) {
            h = h * 31 + (unsigned char)s->p[k][0] + (unsigned char)s->p[k][s->n[k] - 1];
            free(s->p[k]);
        }
        large += n > 16384;
        char *p = malloc(n); // a null crashes the driver here: none is owed
        p[0] = p[n - 1] = (char)r;
        s->p[k] = p;
        s->n[k] = n;
    }
    printf("long: %zu large pairs, sum=%08x\n", large, h);
}

static int failed;

static uint32_t sums(Script *s) {
    uint32_t h = 0;
    for (int i = 0; i < s->live; i++)
        h = h * 31 + sum(s->p[i], s->n[i]);
    return h;
}

static void check(const char *what, int ok) {
    printf("%s: %s\n", what, ok ? "ok" : "FAILED");
    failed |= !ok;
}

// Ops glibc answers otherwise (it aborts on a double free, say), each
// with the answer DieHard owes. `neighbors` are objects that none of them
// may touch.
static void diehard_only(Script *s) {
    static char foreign[64], *big[4097], *q[200];
    char stack[64];
    for (int i = 0; i < 64; i++)
        TRY(s, "malloc", 8, 16, malloc(8), 0);
    uint32_t neighbors = sums(s);
    // §4.3: a double free changes nothing: no block is handed out twice.
    char *p = malloc(64), *l = malloc(20000);
    free(p);
    free(p);
    int ok = 1;
    for (int i = 0; i < 200; i++) {
        ok &= (q[i] = malloc(64)) != NULL;
        for (int j = 0; j < i; j++)
            ok &= q[i] != q[j];
    }
    check("a double free is ignored", ok);
    for (int i = 0; i < 200; i++)
        free(q[i]);
    // §4.3: an interior free leaves its object live and whole.
    p = malloc(256);
    memset(p, 0x3C, 256);
    memset(l, 0x3D, 20000);
    free(p + 16);
    free(l + 4096);
    for (int i = 0; i < 200; i++)
        ok &= (q[i] = malloc(256)) != p;
    check("an interior free is ignored",
          ok && malloc_usable_size(p) >= 256 && p[255] == 0x3C && malloc_usable_size(l) >= 20000 &&
              l[19999] == 0x3D);
    for (int i = 0; i < 200; i++)
        free(q[i]);
    free(p);
    free(l);
    // §4.3: a foreign free is ignored, and a foreign block has no size.
    free(foreign);
    free(stack);
    free(foreign + 3);
    free((void *)0xDEAD0000); // mapped by nobody
    check("a foreign pointer has usable size 0",
          malloc_usable_size(foreign) == 0 && malloc_usable_size(stack) == 0);
    // What the library promises beyond glibc: a shrink stays in place, a
    // pvalloc block is whole pages, and a null out-pointer is EINVAL.
    p = malloc(100);
    check("a shrinking realloc keeps its block", realloc(p, 10) == p);
    free(p);
    char *pv[2] = {pvalloc(0), pvalloc(4097)};
    check("a pvalloc block is whole pages",
          malloc_usable_size(pv[0]) >= 4096 && malloc_usable_size(pv[1]) >= 8192);
    free(pv[0]);
    free(pv[1]);
    check("posix_memalign(NULL, …) is EINVAL", posix_memalign(NULL, 16, 64) == EINVAL);
    // §4.4: a copy into a heap object ends inside it, terminated.
    char *d = malloc(8), *e = malloc(64);
    size_t room = malloc_usable_size(d);
    check("strcpy stays within its object",
          strcpy(d, text) == d && d[room - 1] == 0 && strlen(d) == room - 1);
    check("strncpy with a lying length stays within its object",
          strncpy(d, text, MB) == d && d[room - 1] == 0 && strlen(d) == room - 1);
    strncpy(e, text, 4);
    check("strncpy into an object terminates at n", e[4] == 0 && memcmp(e, text, 4) == 0);
    check("no neighbor was touched", sums(s) == neighbors);
    free(d);
    free(e);
    // glibc 2.36 serves aligned_alloc(0 | 3, n); glibc >= 2.38 answers null
    // and EINVAL, as libdiehard.so does. A known difference, kept as it is.
    errno = 0;
    check("aligned_alloc(0, 64) is null, EINVAL", !aligned_alloc(0, 64) && errno == EINVAL);
    errno = 0;
    check("aligned_alloc(3, 64) is null, EINVAL", !aligned_alloc(3, 64) && errno == EINVAL);
    // ROADMAP F: the large-object table holds 4 096 live large objects and
    // spills, so the 4 097th gets null and ENOMEM. Pinned as it is, not
    // avoided; when F lands this answer flips.
    int n = 0;
    errno = 0;
    while (n < 4097 && (big[n] = malloc(20000)))
        n++;
    check("the 4 097th live large object is null, ENOMEM", n == 4096 && errno == ENOMEM);
    free(big[0]);
    check("a freed large object makes room", (big[0] = malloc(20000)) != NULL);
    for (int i = 0; i < n; i++)
        free(big[i]);
}

int main(int argc, char **argv) {
    static Script s = {.who = ""};
    alarm(10); // every mode's deadline: SIGALRM ends the process
    s.out = stdout;
    s.rng = argc > 2 ? strtoull(argv[2], NULL, 10) * 2654435761u + 1 : 1;
    for (size_t c = 8; c <= 16384; c *= 2)
        for (size_t d = c - 1; d <= c + 1; d++)
            sizes[nsizes++] = d;
    size_t more[] = {0, 1, 20000, 2 * MB - 1, 2 * MB, 2 * MB + 1, SIZE_MAX};
    for (int i = 0; i < 7; i++)
        sizes[nsizes++] = more[i];
    for (int i = 0; i < 300; i++)
        text[i] = (char)('a' + i % 26);
    if (argc > 1 && !strcmp(argv[1], "long")) {
        long_mode(&s);
    } else if (argc > 1 && !strcmp(argv[1], "diehard")) {
        diehard_only(&s);
    } else {
        edges(&s);
        for (int i = 0; i < 300; i++)
            step(&s);
        forked(&s, 200);
        threads(&s);
        forked(&s, 200); // in a process that has had threads
        for (int i = 0; i < 300; i++)
            step(&s);
        while (s.live)
            drop(&s, s.live - 1);
    }
    return failed;
}
