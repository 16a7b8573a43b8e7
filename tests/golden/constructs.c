// constructs — generated by the Lucid compiler (eBPF/XDP backend)
// Self-contained: compile with `clang -O2 -target bpf -c`; no kernel headers needed.

typedef unsigned char __u8;
typedef unsigned short __u16;
typedef unsigned int __u32;
typedef unsigned long long __u64;

#define SEC(name) __attribute__((section(name), used))
#define __always_inline inline __attribute__((always_inline))
#define LUCID_MASK(w) ((__u32)0xffffffffu >> (32 - (w)))

// Minimal XDP ABI (linux/bpf.h subset).
struct xdp_md {
    __u32 data;
    __u32 data_end;
    __u32 data_meta;
    __u32 ingress_ifindex;
    __u32 rx_queue_index;
    __u32 egress_ifindex;
};

enum xdp_action {
    XDP_ABORTED = 0,
    XDP_DROP = 1,
    XDP_PASS = 2,
    XDP_TX = 3,
    XDP_REDIRECT = 4,
};

#define BPF_MAP_TYPE_ARRAY 2
#define BPF_MAP_TYPE_PROG_ARRAY 3
struct bpf_map_def {
    __u32 type;
    __u32 key_size;
    __u32 value_size;
    __u32 max_entries;
    __u32 map_flags;
};

// BPF helper stubs, resolved by the loader to helper ids.
static void *(*bpf_map_lookup_elem)(void *map, const void *key) = (void *)1;
static __u64 (*bpf_ktime_get_ns)(void) = (void *)5;
static long (*bpf_tail_call)(void *ctx, void *map, __u32 index) = (void *)12;
static long (*bpf_xdp_adjust_tail)(void *ctx, long delta) = (void *)65;

#define ETHERTYPE_LUCID 0x0666
// Multi-byte wire fields are network byte order, matching the P4 target.
#if __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define lucid_htons(x) __builtin_bswap16(x)
#define lucid_htonl(x) __builtin_bswap32(x)
#define lucid_htonll(x) __builtin_bswap64(x)
#else
#define lucid_htons(x) (x)
#define lucid_htonl(x) (x)
#define lucid_htonll(x) (x)
#endif
#define lucid_ntohs(x) lucid_htons(x)
#define lucid_ntohl(x) lucid_htonl(x)
#define lucid_ntohll(x) lucid_htonll(x)

// This switch's identity; patched per deployment by the loader.
#define LUCID_SELF_ID 1

// Register arrays: one preallocated BPF array map per Lucid Array<<w>>(n).
struct bpf_map_def SEC("maps") reg_counts = {
    .type = BPF_MAP_TYPE_ARRAY,
    .key_size = 4,
    .value_size = 4,
    .max_entries = 256,
};
struct bpf_map_def SEC("maps") reg_marks = {
    .type = BPF_MAP_TYPE_ARRAY,
    .key_size = 4,
    .value_size = 4,
    .max_entries = 256,
};

// Recirculation prog array: generate re-enters the pipeline via bpf_tail_call.
enum {
    LUCID_PROG_MAIN = 0,
    LUCID_PROG_RECIRC = 1,
};
struct bpf_map_def SEC("maps") lucid_progs = {
    .type = BPF_MAP_TYPE_PROG_ARRAY,
    .key_size = 4,
    .value_size = 4,
    .max_entries = 2,
};

// Event wire format — mirrors the P4 backend's headers.
struct ethernet_h {
    __u8 dst_addr[6];
    __u8 src_addr[6];
    __u16 ether_type;
} __attribute__((packed));

struct lucid_event_h {
    __u16 event_id;
    __u8 mcast_flag;
    __u32 delay_ns;
    __u32 location;
} __attribute__((packed));

struct ev_pkt_h {
    __u64 key;
    __u8 tag;
    __u32 flag;
} __attribute__((packed));

struct ev_note_h {
    __u32 v;
    __u32 w;
} __attribute__((packed));

// Handler locals + event params (the P4 backend's ig_md).
struct lucid_ctx {
    __u32 __self;
    __u32 __t0;
    __u32 __t1;
    __u32 __t2;
    __u32 __t3;
    __u32 __t4;
    __u32 __t5;
    __u32 __ts;
    __u32 flag;
    __u64 key;
    __u32 tag;
    __u32 v;
    __u32 w;
    __u32 ev_id;
    __u32 gen0_fired;
    __u32 gen0_delay;
    __u32 gen0_loc;
    __u32 gen0_a0;
    __u32 gen0_a1;
};

// Hash builtin: inline CRC32 (one unrolled round per input word).
static __always_inline __u32 lucid_crc32_word(__u32 crc, __u32 word)
{
    crc ^= word;
#pragma unroll
    for (int i = 0; i < 32; i++)
        crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
    return crc;
}

// Recirculation entry: the userspace delay queue re-injects matured
// event packets here (fresh tail-call budget). Events still carrying a
// delay go back up (the kernel has no pausable queue); immediate ones
// re-enter the pipeline.
SEC("xdp")
int lucid_xdp_recirc(struct xdp_md *ctx)
{
    void *data = (void *)(long)ctx->data;
    void *data_end = (void *)(long)ctx->data_end;
    struct ethernet_h *eth = data;
    if ((void *)(eth + 1) > data_end)
        return XDP_ABORTED;
    struct lucid_event_h *ev = (void *)(eth + 1);
    if ((void *)(ev + 1) > data_end)
        return XDP_ABORTED;
    if (ev->delay_ns > 0)
        return XDP_PASS; // userspace delay queue
    bpf_tail_call(ctx, &lucid_progs, LUCID_PROG_MAIN);
    return XDP_ABORTED; // prog array not populated
}

SEC("xdp")
int lucid_xdp_main(struct xdp_md *ctx)
{
    void *data = (void *)(long)ctx->data;
    void *data_end = (void *)(long)ctx->data_end;

    struct ethernet_h *eth = data;
    if ((void *)(eth + 1) > data_end)
        return XDP_PASS;
    if (eth->ether_type != lucid_htons(ETHERTYPE_LUCID))
        return XDP_PASS; // not a Lucid event packet
    struct lucid_event_h *ev = (void *)(eth + 1);
    if ((void *)(ev + 1) > data_end)
        return XDP_PASS;

    struct lucid_ctx m = {};
    m.__self = LUCID_SELF_ID;
    m.__ts = (__u32)bpf_ktime_get_ns();
    m.ev_id = lucid_ntohs(ev->event_id);

    // Dispatcher: copy event params into the ctx struct.
    switch (m.ev_id) {
    case 0: { // pkt
        struct ev_pkt_h *p = (void *)(ev + 1);
        if ((void *)(p + 1) > data_end)
            return XDP_DROP;
        m.key = lucid_ntohll(p->key);
        m.tag = p->tag;
        m.flag = lucid_ntohl(p->flag);
        break;
    }
    case 1: { // note
        struct ev_note_h *p = (void *)(ev + 1);
        if ((void *)(p + 1) > data_end)
            return XDP_DROP;
        m.v = lucid_ntohl(p->v);
        m.w = lucid_ntohl(p->w);
        break;
    }
    default:
        return XDP_PASS; // unknown event: forward untouched
    }

    // ---- stage 0 ----
    if (m.ev_id == 0) { // pkt: hash
        m.__t0 = ((lucid_crc32_word(lucid_crc32_word(lucid_crc32_word(0xffffffffu ^ 7u, (__u32)m.key), (__u32)(m.key >> 32)), m.flag)) ^ 0xffffffffu) & 255u;
    }
    if (m.ev_id == 0) { // pkt: op
        m.__t1 = 0 - m.flag;
    }
    if (m.ev_id == 0) { // pkt: op
        m.__t2 = m.flag ^ -1;
    }
    if (m.ev_id == 0) { // pkt: op
        m.__t3 = (m.flag == 0) ? 1 : 0;
    }
    if (m.ev_id == 1) { // note: op
        m.__t0 = m.v & 255;
    }
    if (m.ev_id == 0 && (m.tag != 1 && m.flag != 3)) { // pkt: op
        m.__t5 = m.flag & 1;
    }
    // ---- stage 1 ----
    if (m.ev_id == 0) { // pkt: op
        m.__t4 = (m.__t3 == 0) ? 1 : 0;
    }
    if (m.ev_id == 0 && (m.tag != 1 && m.flag != 3)) { // pkt: mem
        {
            __u32 key = m.__t0;
            __u32 *cellp = bpf_map_lookup_elem(&reg_counts, &key);
            if (cellp) {
                __u32 cell = *cellp; // single read
                __u32 nc = cell;
                nc = cell + 1;
                *cellp = nc; // single write
            }
        }
    }
    if (m.ev_id == 0 && (m.tag != 1 && m.flag != 3)) { // pkt: generate
        m.gen0_fired = 1;
        m.gen0_delay = 0;
        m.gen0_loc = m.__t5;
        m.gen0_a0 = m.__t1;
        m.gen0_a1 = m.__t2;
    }
    // ---- stage 2 ----
    if (m.ev_id == 1) { // note: mem
        {
            __u32 key = m.__t0;
            __u32 *cellp = bpf_map_lookup_elem(&reg_marks, &key);
            if (cellp) {
                *cellp = m.w & LUCID_MASK(16); // single write
            }
        }
    }
    if (m.ev_id == 0 && (m.__t4 != 0)) { // pkt: mem
        {
            __u32 key = m.__t0;
            __u32 *cellp = bpf_map_lookup_elem(&reg_marks, &key);
            if (cellp) {
                *cellp = 1 & LUCID_MASK(16); // single write
            }
        }
    }

    // Serializer: recirculate the first generated event (XDP cannot
    // clone; additional events would need an AF_XDP or devmap fan-out).
    if (m.gen0_fired) {
        long need = (long)(sizeof(struct ethernet_h) + sizeof(struct lucid_event_h) + sizeof(struct ev_note_h));
        long delta = need - (long)(data_end - data);
        if (delta > 0) {
            if (bpf_xdp_adjust_tail(ctx, delta))
                return XDP_ABORTED;
            data = (void *)(long)ctx->data;
            data_end = (void *)(long)ctx->data_end;
            eth = data;
            if ((void *)(eth + 1) > data_end)
                return XDP_ABORTED;
            ev = (void *)(eth + 1);
            if ((void *)(ev + 1) > data_end)
                return XDP_ABORTED;
        }
        ev->event_id = lucid_htons(1); // note
        ev->mcast_flag = 0;
        ev->delay_ns = lucid_htonl(m.gen0_delay);
        ev->location = lucid_htonl(m.gen0_loc);
        struct ev_note_h *out = (void *)(ev + 1);
        if ((void *)(out + 1) > data_end)
            return XDP_ABORTED;
        out->v = lucid_htonl((__u32)m.gen0_a0);
        out->w = lucid_htonl((__u32)m.gen0_a1);
        if (m.gen0_delay > 0)
            return XDP_PASS; // userspace delay queue
        bpf_tail_call(ctx, &lucid_progs, LUCID_PROG_MAIN);
        return XDP_ABORTED; // prog array not populated
    }
    return XDP_PASS;
}

SEC("license") char _license[] = "GPL";
